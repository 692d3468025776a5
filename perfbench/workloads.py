"""The benchmark workloads: one timed call into the package each, plus checks.

Each workload is a closed loop in one process: the next call starts when
the previous one has returned. ``warmup`` is the lazy set-up counted in
``setup_s``; ``prepare`` builds untimed references; ``call`` is the only
code inside the timed region; ``check`` tests one call's output against an
invariant or an independent reference and returns the problems it found.
Checks test invariants rather than stored bytes, so a deliberate change of
the random streams is not counted as a failure.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
from jsm2lab import cli, decoder, ensemble, montecarlo

import oracle
from tracer import QUADSTATS, Tracer

SWEEP_VALUES = (3, 5, 7, 9, 11)


def op_seed(seed: int, i: int) -> int:
    """Master seed of call i, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _gaussian_draws_per_trial(p: ensemble.ProblemParams) -> int:
    """Variates one trial needs: S sensing matrices and S noise vectors."""
    return p.s * p.m * (p.n + 1)


def _run_cli(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    name = ""
    trials_per_op = 0
    draws_per_op = 0.0

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.seed = 0
        self.notes: List[str] = []

    def warmup(self) -> None:
        raise NotImplementedError

    def prepare(self, seed: int) -> List[str]:
        self.seed = seed
        return []

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> List[str]:
        raise NotImplementedError

    def output_bytes(self, output) -> int:
        return 0

    def check_rng(self, i: int) -> np.random.Generator:
        # a stream of the benchmark's own, disjoint from the call seeds
        return np.random.default_rng([self.seed, i, 1])

    def trace_extras(self, untraced_walls: List[float]) -> Dict[str, float]:
        return {}


# ---- Monte Carlo workloads ------------------------------------------------


def counter_problems(result: montecarlo.RunResult, trials: int) -> List[str]:
    """Per-trial containments of the four events, summed over trials.

    correct-atypical implies a decode error (the true support cannot be
    chosen), a decode error implies the failure union, and the union is
    correct-atypical or incorrect-typical.
    """
    ests = (result.event_failure, result.decode_error, result.correct_atypical,
            result.incorrect_typical_rate)
    if any(e.trials != trials for e in ests):
        return [f"trial counts {[e.trials for e in ests]} != {trials}"]
    ef, de, ca, it = (e.successes for e in ests)
    if not (0 <= ca <= de <= ef <= trials and it <= ef <= ca + it):
        return [f"event counters violate ca<=de<=ef, it<=ef<=ca+it: ef={ef} de={de} ca={ca} it={it}"]
    return []


def draw_instance(p: ensemble.ProblemParams, rng: np.random.Generator):
    """One problem instance at p, drawn with the public samplers."""
    support = ensemble.sample_support(p.n, p.k, rng)
    x = ensemble.sample_sparse_ensemble(support, p.s, p.x_min, seed=rng)
    f = ensemble.sample_sensing(p.m, p.n, p.s, rng)
    y = ensemble.measure(x, f, p.sigma2, rng)
    return support, f, y


def redecode_problems(p: ensemble.ProblemParams, rng: np.random.Generator, notes: List[str]) -> List[str]:
    """Decode one fresh instance at p; compare with the dense lstsq reference.

    The decision and all four events must agree. An instance within
    round-off of a decision boundary is noted, not compared.
    """
    support, f, y = draw_instance(p, rng)
    out = decoder.decode(y, f, p, true_support=support)
    ref = oracle.dense_decode(y.measurements, f.matrices, p.sigma2, p.delta, support.indices)
    if ref.near_tie:
        notes.append(f"re-decoded instance at M={p.m} within round-off of a boundary, not compared")
        return []
    got = (
        None if out.decoded is None else out.decoded.indices,
        out.correct_typical,
        out.num_incorrect_typical,
        out.event_failure,
        out.decode_error,
    )
    want = (ref.decoded, ref.correct_typical, ref.num_incorrect_typical,
            ref.event_failure, ref.decode_error)
    return [] if got == want else [f"decode at M={p.m} {got} != dense lstsq {want}"]


class MonteCarlo(Workload):
    """``run_trials`` at one point with jobs=1, a fresh master seed per call."""

    params: ensemble.ProblemParams

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.draws_per_op = self.trials_per_op * _gaussian_draws_per_trial(self.params)

    def warmup(self) -> None:
        montecarlo.run_trials(montecarlo.TrialPlan(self.params, 1, 0))

    def call(self, i: int):
        plan = montecarlo.TrialPlan(self.params, self.trials_per_op, op_seed(self.seed, i))
        return montecarlo.run_trials(plan, jobs=1)


class EnumMonteCarlo(MonteCarlo):
    """P5: C(64,4) = 635,376 candidates per trial, all in the decoder."""

    name = "mc-enum"
    params = ensemble.ProblemParams(n=64, k=4, m=5, s=2, sigma2=1.0, xmin2=1.0)
    trials_per_op = 2

    def check(self, i: int, result) -> List[str]:
        problems = counter_problems(result, self.trials_per_op)
        if i == 0:
            problems += self.true_support_problems(self.check_rng(i))
        return problems

    def true_support_problems(self, rng: np.random.Generator) -> List[str]:
        """Decode one fresh instance; check it on the true and decoded supports.

        Enumerating C(64,4) candidates with lstsq is too slow, so the dense
        reference scores only the true support and the decoded one.
        """
        p = self.params
        support, f, y = draw_instance(p, rng)
        out = decoder.decode(y, f, p, true_support=support)
        threshold = p.s * p.m * p.delta
        tol = oracle.TIE_TOL * max(1.0, threshold)
        _, c_true, rank_ok = oracle.dense_stat(y.measurements, f.matrices, support.indices, p.sigma2)
        problems = []
        if abs(abs(c_true) - threshold) <= tol:
            self.notes.append("true support within round-off of the threshold, typicality not compared")
        elif out.correct_typical != (rank_ok and abs(c_true) < threshold):
            problems.append(f"true support typical={out.correct_typical}, dense lstsq |centered|={abs(c_true)!r} vs {threshold!r}")
        if out.decode_error != (out.decoded != support):
            problems.append("decode_error disagrees with the decision")
        if out.event_failure != ((not out.correct_typical) or out.num_incorrect_typical > 0):
            problems.append("event_failure is not the union of its two events")
        if out.decoded is not None:
            _, c_dec, _ = oracle.dense_stat(y.measurements, f.matrices, out.decoded.indices, p.sigma2)
            if abs(c_dec) >= threshold + tol:
                problems.append(f"decoded support is atypical under dense lstsq: {abs(c_dec)!r}")
            if out.correct_typical and abs(c_dec) > abs(c_true) + tol:
                problems.append("decoded support scores worse than the typical true support")
            if out.decoded != support and out.num_incorrect_typical < 1:
                problems.append("incorrect decision but no incorrect typical candidate counted")
        return problems


# ---- Command-line workloads -----------------------------------------------


class SweepFanout(Workload):
    """``jsm2lab sweep`` over M with --jobs 2: process fan-out, bounds, CSV."""

    name = "sweep-fanout"
    trials = 1000
    jobs = 2
    redecoded_per_op = 2
    params = ensemble.ProblemParams(n=16, k=2, m=3, s=4, sigma2=0.01, xmin2=1.0)  # M is swept

    def __init__(self, workdir: str):
        super().__init__(workdir)
        p = self.params
        self.trials_per_op = self.trials * len(SWEEP_VALUES)
        self.draws_per_op = sum(self.trials * p.s * m * (p.n + 1) for m in SWEEP_VALUES)
        self.reference: Optional[bytes] = None
        self.reference_wall = 0.0
        self.notes.append(
            "pool workers are out of reach of the tracer: decoder, seeding and "
            "ensemble numbers come from the jobs=1 workloads"
        )

    def argv(self, seed: int, trials: int, jobs: int, out: str) -> List[str]:
        p = self.params
        return [
            "sweep", "--n", str(p.n), "--k", str(p.k), "--s", str(p.s),
            "--snr", repr(p.snr_min), "--axis", "m",
            "--values", ",".join(str(v) for v in SWEEP_VALUES),
            "--trials", str(trials), "--seed", str(seed), "--jobs", str(jobs),
            "--out", out,
        ]

    def path(self, stem: str) -> str:
        return os.path.join(self.workdir, stem + ".csv")

    def warmup(self) -> None:
        _run_cli(self.argv(0, 1, 1, self.path("warmup")))

    def prepare(self, seed: int) -> List[str]:
        """Reference CSV from --jobs 1, outside the timed region."""
        self.seed = seed
        start = time.perf_counter()
        code, _ = _run_cli(self.argv(seed, self.trials, 1, self.path("reference")))
        self.reference_wall = time.perf_counter() - start
        if code != 0:
            return [f"reference sweep exited {code}"]
        with open(self.path("reference"), "rb") as handle:
            self.reference = handle.read()
        rows = list(csv.DictReader(io.StringIO(self.reference.decode())))
        problems = [f"reference row error: {r['error']}" for r in rows if r.get("error")]
        if len(rows) != len(SWEEP_VALUES):
            problems.append(f"reference has {len(rows)} rows, expected {len(SWEEP_VALUES)}")
        return problems

    def call(self, i: int):
        return _run_cli(self.argv(self.seed, self.trials, self.jobs, self.path("op")))

    def check(self, i: int, output) -> List[str]:
        code, _ = output
        if code != 0:
            return [f"sweep exited {code}"]
        with open(self.path("op"), "rb") as handle:
            data = handle.read()
        problems = []
        if data != self.reference:
            problems.append("CSV bytes differ from the --jobs 1 reference")
        with open(self.path("op") + ".meta.json") as handle:
            meta = json.load(handle)
        data_rows = data.decode().count("\n") - 1
        if len(meta.get("rows", [])) != data_rows:
            problems.append(f"sidecar lists {len(meta.get('rows', []))} rows, CSV has {data_rows}")
        # the workers' decoder, on fresh instances at the grid points in turn
        rng = self.check_rng(i)
        for j in range(self.redecoded_per_op):
            m = SWEEP_VALUES[(i * self.redecoded_per_op + j) % len(SWEEP_VALUES)]
            problems += redecode_problems(dataclasses.replace(self.params, m=m), rng, self.notes)
        return problems

    def output_bytes(self, output) -> int:
        files = (self.path("op"), self.path("op") + ".meta.json")
        return len(output[1].encode()) + sum(os.path.getsize(f) for f in files)

    def trace_extras(self, untraced_walls: List[float]) -> Dict[str, float]:
        """Fan-out cost per grid point from untraced jobs=1 and jobs=2 walls."""
        t1 = self.reference_wall
        t2 = float(np.median(untraced_walls))
        return {
            "montecarlo.fanout_overhead_s": (t2 - t1 / self.jobs) / len(SWEEP_VALUES),
            "montecarlo.fanout_efficiency": t1 / (self.jobs * t2),
        }


class OracleVerify(Workload):
    """``jsm2lab verify``: quadstats samplers over millions of small blocks."""

    name = "oracle-verify"
    trials_per_op = 200_000

    def argv(self, seed: int, trials: int) -> List[str]:
        return ["verify", "--seed", str(seed), "--trials", str(trials)]

    def warmup(self) -> None:
        _run_cli(self.argv(0, 1))

    def prepare(self, seed: int) -> List[str]:
        """Count the variates one call requests, in one untimed traced call."""
        self.seed = seed
        tracer = Tracer()
        with tracer.active():
            code, _ = _run_cli(self.argv(op_seed(seed, 0), self.trials_per_op))
        stats = tracer.summary()
        self.draws_per_op = sum(stats[n].counter("draws") for n in QUADSTATS if n in stats)
        problems = [] if code == 0 else [f"verify exited {code}"]
        if not self.draws_per_op:
            problems.append("no quadstats draws observed")
        return problems

    def call(self, i: int):
        return _run_cli(self.argv(op_seed(self.seed, i), self.trials_per_op))

    def check(self, i: int, output) -> List[str]:
        code, text = output
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = [] if code == 0 else [f"verify exited {code}"]
        if not rows:
            problems.append("verify printed no rows")
        problems += [f"{r.get('name')}: {r.get('status')}" for r in rows if r.get("status") != "pass"]
        return problems

    def output_bytes(self, output) -> int:
        return len(output[1].encode())


WORKLOADS = {w.name: w for w in (EnumMonteCarlo, SweepFanout, OracleVerify)}
