"""Call-site spans around the package's layer boundaries.

The package binds names with ``from ... import``, so a wrapper on
``jsm2lab.decoder.decode`` alone would record nothing: each name is
wrapped in the module that looks it up (``jsm2lab.montecarlo.decode``,
``jsm2lab.quadstats.residual_energies``, ...). Spans (name, start, end,
parent) and per-name counters are kept in memory while the tracer is active and
summarized afterwards; a span's self time is its duration minus that of
its child spans. Worker processes started by ``--jobs`` fork with the
wrappers in place, but their spans stay in the worker and are lost, so
per-layer numbers cover the calling process only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import opcount

# (module that looks the name up, attribute, span name)
TARGETS = (
    ("jsm2lab.cli", "main", "cli.main"),
    ("jsm2lab.cli", "sweep", "montecarlo.sweep"),
    ("jsm2lab.cli", "sweep_csv_lines", "montecarlo.sweep_csv_lines"),
    ("jsm2lab.cli", "sweep_metadata", "montecarlo.sweep_metadata"),
    ("jsm2lab.cli", "trend_residual", "montecarlo.trend_residual"),
    ("jsm2lab.cli", "upper_bound_perr", "bounds.upper_bound_perr"),
    ("jsm2lab.cli", "projection_residual", "decoder.projection_residual"),
    ("jsm2lab.cli", "derive_rng", "seeding.derive_rng"),
    ("jsm2lab.cli", "sample_z_correct", "quadstats.sample_z_correct"),
    ("jsm2lab.cli", "sample_z_incorrect", "quadstats.sample_z_incorrect"),
    ("jsm2lab.cli", "sample_quadform", "quadstats.sample_quadform"),
    ("jsm2lab.cli", "laurent_massart_check", "quadstats.laurent_massart_check"),
    ("jsm2lab.montecarlo", "run_trials", "montecarlo.run_trials"),
    ("jsm2lab.montecarlo", "decode", "decoder.decode"),
    ("jsm2lab.montecarlo", "derive_rng", "seeding.derive_rng"),
    ("jsm2lab.montecarlo", "sample_support", "ensemble.sample_support"),
    ("jsm2lab.montecarlo", "sample_sparse_ensemble", "ensemble.sample_sparse_ensemble"),
    ("jsm2lab.montecarlo", "sample_sensing", "ensemble.sample_sensing"),
    ("jsm2lab.montecarlo", "measure", "ensemble.measure"),
    ("jsm2lab.bounds", "upper_bound_perr", "bounds.upper_bound_perr"),
    ("jsm2lab.decoder", "residual_energies", "decoder.residual_energies"),
    ("jsm2lab.quadstats", "residual_energies", "decoder.residual_energies"),
)

SAMPLERS = (
    "ensemble.sample_support",
    "ensemble.sample_sparse_ensemble",
    "ensemble.sample_sensing",
    "ensemble.measure",
)

QUADSTATS = (
    "quadstats.sample_z_correct",
    "quadstats.sample_z_incorrect",
    "quadstats.sample_quadform",
    "quadstats.laurent_massart_check",
)


# ---- Counters recorded per call ------------------------------------------
# Each meter receives the bound arguments and the result and returns the
# counters to add to the span.


@functools.lru_cache(maxsize=None)
def _decode_counts(n: int, k: int, m: int, s: int) -> Dict[str, int]:
    cv = opcount.candidate_vectors(n, k, s)
    return {
        "candidate_vectors": cv,
        "flops": cv * opcount.householder_flops(m, k),
        "bytes": cv * opcount.candidate_vector_bytes(m, k),
    }


def _decode_meter(a, result):
    p = a["params"]
    out = dict(_decode_counts(p.n, p.k, p.m, p.s))
    if result.num_incorrect_typical is not None:
        out["scored"] = math.comb(p.n, p.k)
        out["typical"] = result.num_incorrect_typical + int(result.correct_typical)
    return out


def _nbytes_meter(a, result):
    arrays = ("matrices", "measurements", "vectors")
    return {"bytes": sum(getattr(result, name).nbytes for name in arrays if hasattr(result, name))}


def _blocks_meter(a, result):
    return {"blocks": int(result[0].size)}


# Standard-normal variates each quadstats sampler requests.
def _z_correct_draws(a, result):
    return {"draws": a["trials"] * a["s"] * a["m"] * (a["k"] + 1)}


def _z_incorrect_draws(a, result):
    return {"draws": a["trials"] * len(a["alpha_list"]) * a["m"] * (a["k"] + 1)}


def _quadform_draws(a, result):
    return {"draws": a["trials"] * len(a["spec"].eigenvalues)}


def _tail_check_draws(a, result):
    return {"draws": a["trials"] * len(a["alpha_list"])}


METERS: Dict[str, Callable] = {
    "decoder.decode": _decode_meter,
    "decoder.residual_energies": _blocks_meter,
    "ensemble.sample_sparse_ensemble": _nbytes_meter,
    "ensemble.sample_sensing": _nbytes_meter,
    "ensemble.measure": _nbytes_meter,
    "montecarlo.run_trials": lambda a, r: {"trials": a["plan"].trials},
    "montecarlo.sweep_csv_lines": lambda a, r: {"bytes": len(r.encode())},
    "quadstats.sample_z_correct": _z_correct_draws,
    "quadstats.sample_z_incorrect": _z_incorrect_draws,
    "quadstats.sample_quadform": _quadform_draws,
    "quadstats.laurent_massart_check": _tail_check_draws,
}


class _Arguments:
    """Call arguments by parameter name, without the cost of Signature.bind."""

    def __init__(self, params, args, kwargs):
        self._params = params  # name -> (position, default)
        self._args = args
        self._kwargs = kwargs

    def __getitem__(self, key: str):
        if key in self._kwargs:
            return self._kwargs[key]
        position, default = self._params[key]
        return self._args[position] if position < len(self._args) else default


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0)


class Tracer:
    """Installs the call-site wrappers while active and keeps the spans."""

    def __init__(self):
        self.spans: List[list] = []
        self.missing: List[str] = []
        self.meter_errors: Dict[str, str] = {}
        self.counters: Dict[str, Dict[str, float]] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def active(self):
        installed = []
        self.missing = []
        try:
            for module_name, attr, span in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(span, original))
                installed.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        meter = METERS.get(name)
        params = {
            p.name: (i, p.default)
            for i, p in enumerate(inspect.signature(fn).parameters.values())
        } if meter else {}
        errors = self.meter_errors
        totals = self.counters.setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if meter is not None:
                try:
                    for key, value in meter(_Arguments(params, args, kwargs), result).items():
                        totals[key] = totals.get(key, 0) + value
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def summary(self) -> Dict[str, SpanStats]:
        stats = summarize(self.spans)
        for name, totals in self.counters.items():
            if name in stats:
                stats[name].counters = dict(totals)
        return stats


def summarize(spans) -> Dict[str, SpanStats]:
    """Per-name calls, total and self time, and span durations."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: Dict[str, SpanStats] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        st = stats.setdefault(name, SpanStats())
        st.calls += 1
        st.total += end - start
        st.self_time += end - start - child_time[idx]
        st.durations.append(end - start)
    return stats


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: Dict[str, SpanStats], ops: int, wall: float, trials: int) -> Dict[str, float]:
    """The named per-layer metrics over ``ops`` traced operations.

    wall is the summed wall time of those operations and trials the Monte
    Carlo trials they ran. A layer the workload never calls reads 0.
    """
    empty = SpanStats()

    def st(name: str) -> SpanStats:
        return stats.get(name, empty)

    def self_of(names) -> float:
        return sum(st(n).self_time for n in names)

    rng = st("seeding.derive_rng")
    dec = st("decoder.decode")
    res = st("decoder.residual_energies")
    rt = st("montecarlo.run_trials")
    csv_lines = st("montecarlo.sweep_csv_lines")
    ub = st("bounds.upper_bound_perr")
    sample_calls = sum(st(n).calls for n in SAMPLERS)
    sample_bytes = sum(st(n).counter("bytes") for n in SAMPLERS)
    out = {
        "seeding.derive_rng.calls": rng.calls / ops,
        "seeding.derive_rng.us": 1e6 * _ratio(rng.total, rng.calls),
        "seeding.self_share": _ratio(self_of(["seeding.derive_rng"]), wall),
        "ensemble.sample.calls": sample_calls / ops,
        "ensemble.sample.us_per_trial": 1e6 * _ratio(self_of(SAMPLERS), trials),
        "ensemble.sample.bytes_computed": _ratio(sample_bytes, trials),
        "decoder.decode.calls": dec.calls / ops,
        "decoder.decode.ms_p50": 1e3 * _quantile(dec.durations, 0.5),
        "decoder.decode.ms_p90": 1e3 * _quantile(dec.durations, 0.9),
        "decoder.decode.self_share": _ratio(dec.self_time, wall),
        "decoder.candidate_vectors": _ratio(dec.counter("candidate_vectors"), dec.calls),
        "decoder.ns_per_candidate_vector": 1e9 * _ratio(dec.total, dec.counter("candidate_vectors")),
        "decoder.flops_computed": _ratio(dec.counter("flops"), dec.calls),
        "decoder.bytes_computed": _ratio(dec.counter("bytes"), dec.calls),
        "decoder.flops_per_byte": _ratio(dec.counter("flops"), dec.counter("bytes")),
        "decoder.typical_fraction": _ratio(dec.counter("typical"), dec.counter("scored")),
        "decoder.residual_energies.calls": res.calls / ops,
        "decoder.residual_energies.blocks_per_call": _ratio(res.counter("blocks"), res.calls),
        "decoder.residual_energies.ns_per_block": 1e9 * _ratio(res.total, res.counter("blocks")),
        "montecarlo.run_trials.calls": rt.calls / ops,
        "montecarlo.run_trials.self_s": rt.self_time / ops,
        "montecarlo.sweep_csv_lines.us": 1e6 * _ratio(csv_lines.total, csv_lines.calls),
        "montecarlo.csv_bytes": csv_lines.counter("bytes") / ops,
        "bounds.upper_bound_perr.calls": ub.calls / ops,
        "bounds.upper_bound_perr.us": 1e6 * _ratio(ub.total, ub.calls),
        "quadstats.draws": sum(st(n).counter("draws") for n in QUADSTATS) / ops,
        "cli.main.self_s": st("cli.main").self_time / ops,
    }
    for name in QUADSTATS:
        out[f"{name}.self_s"] = st(name).self_time / ops
    return out

