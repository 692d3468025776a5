"""Command-line front end: bounds tables, simulations, sweeps, verification.

Subcommands: bounds (closed-form report), simulate (one Monte Carlo point),
sweep (grid of points to CSV), find-m (smallest sufficient M search), and
verify (self-check suite of distributional and dominance properties).
verify runs its correct-support sampler on a second thread beside its
other checks; its output bytes do not depend on the thread.
Each command takes only the flags it reads (_COMMAND_FLAGS), named in
full, and refuses any other. The same flags can be supplied through a flat
key=value config file, which may set only those keys; explicit flags win
over file entries. All randomness flows from --seed, which has a fixed
documented default so unseeded runs are still reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import threading
import time
import warnings
from dataclasses import replace
from typing import ContextManager, Dict, List, NoReturn, Optional, Sequence, TextIO, Tuple

import numpy as np

from .bounds import (
    BOUND_REPORT_CSV_HEADER,
    SUFFICIENCY_CSV_HEADER,
    sufficiency_report,
    upper_bound_perr,
)
from .decoder import check_enumeration_budget, projection_residual
from .ensemble import AMPLITUDE_FIXED, AMPLITUDE_MODES, ProblemParams
from .errors import ConfigError, EnumerationBudgetError, InvalidRangeError, Jsm2LabError
from .montecarlo import (
    SweepRow,
    TrialPlan,
    find_M_star,
    sweep,
    sweep_csv_lines,
    sweep_metadata,
    trend_residual,
)
from .quadstats import (
    QuadFormSpec,
    laurent_massart_check,
    quadform_mgf,
    sample_quadform,
    sample_z_correct,
    sample_z_incorrect,
)
from .seeding import ROLE_CHECK, derive_rng

DEFAULT_SEED = 24301  # 0x5EED
DEFAULT_TRIALS = 10_000
DEFAULT_RHO = 2.0
DEFAULT_XMIN2 = 1.0
DEFAULT_SIGMA2 = 1.0

# The dimensions a sweep can vary; its rows follow the grid values in
# increasing order (for snr, increasing SNR_min).
SWEEP_AXES = ("k", "m", "n", "s", "snr")


# ---- Flag and config-file parsing ----------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are ConfigError, one message and no usage text."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def _parse_bool(value: str) -> bool:
    """The --fix-signal converter."""
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, yes/no or 1/0, got {value!r}")


def _parse_values(value: str) -> Tuple[float, ...]:
    """The --values converter: a non-empty comma-separated list of numbers."""
    try:
        values = tuple(float(v) for v in value.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {value!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


# Every flag with its argparse keywords.
_FLAGS: Dict[str, dict] = {
    "n": dict(type=int),
    "k": dict(type=int),
    "m": dict(type=int),
    "s": dict(type=int),
    "trials": dict(type=int, default=DEFAULT_TRIALS),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "jobs": dict(type=int, default=1),
    "snr": dict(type=float),
    "sigma2": dict(type=float),
    "xmin2": dict(type=float, default=DEFAULT_XMIN2),
    "rho": dict(type=float, default=DEFAULT_RHO),
    "delta": dict(type=float),
    "target": dict(type=float),
    "xmax": dict(type=float),
    "axis": dict(type=str.lower, choices=SWEEP_AXES),
    "values": dict(type=_parse_values),
    "out": dict(),
    "amplitude": dict(choices=AMPLITUDE_MODES, default=AMPLITUDE_FIXED),
    "fix-signal": dict(type=_parse_bool, default=True),
}

# The flags each command reads, besides --config. A command refuses every
# other flag, and its config file may set exactly these keys.
_POINT_FLAGS = ("n", "k", "m", "s", "snr", "sigma2", "xmin2", "rho", "delta", "out")
_RUN_FLAGS = _POINT_FLAGS + ("trials", "seed", "jobs", "amplitude", "xmax", "fix-signal")
_COMMAND_FLAGS: Dict[str, Tuple[str, ...]] = {
    "bounds": _POINT_FLAGS,
    "simulate": _RUN_FLAGS,
    "sweep": _RUN_FLAGS + ("axis", "values"),
    # the search sets M itself, from K+1 up
    "find-m": tuple(key for key in _RUN_FLAGS if key != "m") + ("target",),
    "verify": ("seed", "trials", "out"),
}


def _add_flags(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for key in _COMMAND_FLAGS[command]:
        parser.add_argument(f"--{key}", **_FLAGS[key])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jsm2lab",
        description="Support-set recovery experiments for jointly sparse ensembles.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command in _COMMAND_FLAGS:
        # a flag is named in full: no prefix of one stands for it
        _add_flags(subs.add_parser(command, allow_abbrev=False), command).add_argument("--config")
    return parser


def read_config_file(path: str, command: str) -> Dict[str, str]:
    """Parse a flat key=value document mirroring the flag names of one command.

    Blank lines and '#' comments are ignored; keys may use '-' or '_'. A
    key must name a flag the command reads, and each value goes through
    that flag's type and choices here, so that an unknown key and a refused
    value are both reported with their path:line.
    """
    values = _add_flags(_Parser(prog="jsm2lab"), command)
    entries: Dict[str, str] = {}
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-") if key == "fix_signal" else key
        if key not in _COMMAND_FLAGS[command]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        try:
            values.parse_args([f"--{key}={value}"])
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        entries[key] = value
    return entries


def parse_config(argv: Sequence[str]) -> argparse.Namespace:
    """Turn argv (plus any --config file) into the parsed flags of one command.

    The namespace holds one attribute per flag the command reads, named as
    the flag (seed, xmax, amplitude, fix_signal, ...), and params, the
    ProblemParams the flags describe (None for verify).
    """
    parser = _build_parser()
    argv = list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # File entries go right after the subcommand, so that a flag given
        # after them wins; the --key=value form keeps values such as -1 whole.
        at = argv.index(args.command) + 1
        entries = [f"--{k}={v}" for k, v in read_config_file(args.config, args.command).items()]
        args = parser.parse_args(argv[:at] + entries + argv[at:])

    command = args.command
    args.params = None if command == "verify" else _build_params(args)

    if command == "sweep":
        if args.axis is None:
            raise ConfigError(f"sweep requires --axis (one of {list(SWEEP_AXES)})")
        if args.values is None:
            raise ConfigError("sweep requires --values")
    if command == "find-m" and args.target is None:
        raise ConfigError("find-m requires --target")
    return args


def _sigma2_at(xmin2: float, snr: float) -> float:
    """Noise variance that puts x_min^2 = xmin2 at the given SNR."""
    if not 0 < snr < math.inf:
        raise ConfigError(f"snr must be finite and > 0, got {snr}")
    return xmin2 / snr


def _build_params(args: argparse.Namespace) -> ProblemParams:
    command = args.command
    dims = {key: getattr(args, key) for key in ("n", "k", "m", "s") if hasattr(args, key)}
    if command == "sweep" and args.values and args.axis in dims and dims[args.axis] is None:
        # The swept dimension may be omitted; seed it from the first grid
        # value, which ProblemParams checks like any other dimension.
        dims[args.axis] = args.values[0]
    missing = [f"--{key}" for key, v in dims.items() if v is None]
    if missing:
        raise ConfigError(f"{command} requires {', '.join(missing)}")
    if command == "find-m":
        # find_M_star probes M from K+1 up; the point starts there. No M
        # comes from the user, so a K that leaves none is refused by K and N
        if 1 <= dims["n"] <= dims["k"]:
            raise ConfigError(f"find-m requires K < N, got K={dims['k']}, N={dims['n']}")
        dims["m"] = dims["k"] + 1

    if args.snr is not None and args.sigma2 is not None:
        raise ConfigError("give either --snr or --sigma2, not both")
    sigma2 = args.sigma2
    if sigma2 is None:
        sigma2 = _sigma2_at(args.xmin2, args.snr) if args.snr is not None else DEFAULT_SIGMA2
    try:
        return ProblemParams(
            **dims,
            sigma2=sigma2,
            xmin2=args.xmin2,
            rho=args.rho,
            delta_override=args.delta,
        )
    except Jsm2LabError as exc:
        raise ConfigError(str(exc)) from exc


# ---- Subcommand bodies ----------------------------------------------------


def _open_out(path: Optional[str], suffix: str = "") -> ContextManager[Optional[TextIO]]:
    """path + suffix opened for writing, or a null context when there is no --out.

    Commands open their output before any work, so that an unwritable --out
    exits 1 at once, with nothing on stdout.
    """
    return open(path + suffix, "w", newline="") if path else contextlib.nullcontext()


def _emit(text: str, out: Optional[TextIO]) -> None:
    sys.stdout.write(text)
    if out:
        out.write(text)


def _cmd_bounds(config: argparse.Namespace) -> int:
    params = config.params
    with _open_out(config.out) as out:
        report = upper_bound_perr(params)
        suff = sufficiency_report(params)
        lines = [
            BOUND_REPORT_CSV_HEADER,
            report.csv_row(),
            SUFFICIENCY_CSV_HEADER,
            suff.csv_row(),
            f"below_necessary_m,{str(params.m < suff.M_necessary).lower()}",
        ]
        _emit("\n".join(lines) + "\n", out)
    return 0


def _plan(config: argparse.Namespace) -> TrialPlan:
    """The run the config describes at its own problem point."""
    return TrialPlan(
        params=config.params,
        trials=config.trials,
        master_seed=config.seed,
        amplitude_mode=config.amplitude,
        fix_signal=config.fix_signal,
        x_max=config.xmax,
    )


def _grid_plans(config: argparse.Namespace) -> List[TrialPlan]:
    base = _plan(config)
    params = config.params
    plans = []
    for value in sorted(config.values):
        try:
            if config.axis == "snr":
                point = replace(params, sigma2=_sigma2_at(params.xmin2, float(value)))
            else:
                point = replace(params, **{config.axis: value})
        except Jsm2LabError as exc:
            raise ConfigError(f"grid value {config.axis}={value}: {exc}") from exc
        plans.append(replace(base, params=point))
    return plans


def _sweep(plans: List[TrialPlan], jobs: int, meta: Optional[TextIO]) -> List[SweepRow]:
    """The rows of sweep(plans, jobs); their sidecar goes to meta when there is one."""
    start = time.monotonic()
    rows = sweep(plans, jobs=jobs)
    if meta:
        json.dump(sweep_metadata(rows, time.monotonic() - start), meta, indent=2, sort_keys=True)
        meta.write("\n")
    return rows


def _cmd_simulate(config: argparse.Namespace) -> int:
    # A single requested point that cannot run is a budget failure,
    # not a recordable partial result like a sweep row.
    check_enumeration_budget(config.params)
    plan = _plan(config)
    with _open_out(config.out) as out, _open_out(config.out, ".meta.json") as meta:
        _emit(sweep_csv_lines(_sweep([plan], config.jobs, meta)), out)
    return 0


def _cmd_sweep(config: argparse.Namespace) -> int:
    plans = _grid_plans(config)
    with _open_out(config.out) as out, _open_out(config.out, ".meta.json") as meta:
        rows = _sweep(plans, config.jobs, meta)
        text = sweep_csv_lines(rows)
        if out:
            out.write(text)
            sys.stdout.write(f"wrote {len(rows)} rows to {config.out}\n")
        else:
            sys.stdout.write(text)
    points = [r.rates.event_failure.point for r in rows if r.rates is not None]
    sys.stdout.write(f"trend_residual,{trend_residual(points)!r}\n")
    return 0


def _cmd_find_m(config: argparse.Namespace) -> int:
    with _open_out(config.out) as out:
        result = find_M_star(_plan(config), target=config.target, jobs=config.jobs)
        lines = [
            f"m_star,{'' if result.m_star is None else result.m_star}",
            f"saturated,{str(result.saturated).lower()}",
            f"non_monotone,{str(result.non_monotone).lower()}",
            f"bracket,{'' if result.bracket is None else '%d:%d' % result.bracket}",
            "m,event_fail,ci_low,ci_high",
        ]
        for m in sorted(result.evaluations):
            est = result.evaluations[m]
            lines.append(f"{m},{est.point!r},{est.ci_low!r},{est.ci_high!r}")
        _emit("\n".join(lines) + "\n", out)
    return 0


# ---- Verification suite ----------------------------------------------------


def _fourth_central_moment(draws: np.ndarray) -> float:
    """Mean of (draws - mean)^4, squared twice in place: ``** 4`` goes to libm pow."""
    dev = draws - draws.mean()
    np.square(dev, out=dev)
    np.square(dev, out=dev)
    return float(dev.mean())


def _householder_residual(block: np.ndarray, y: np.ndarray) -> float:
    """||y - P y||^2 for P the projector onto block's columns, by Householder QR.

    Each reflection is applied to the columns left and to y in elementwise
    numpy (sum reductions and broadcasting), so no BLAS or LAPACK kernel,
    which OpenBLAS picks by CPU, rounds the printed value.
    """
    a, r = block.copy(), y.copy()
    for j in range(a.shape[1]):
        v = a[j:, j].copy()
        v[0] += math.copysign(math.sqrt((v * v).sum()), v[0])
        scale = 2.0 / (v * v).sum()
        a[j:, j + 1 :] -= v[:, None] * (scale * (v[:, None] * a[j:, j + 1 :]).sum(axis=0))
        r[j:] -= v * (scale * (v * r[j:]).sum())
    tail = r[a.shape[1] :]
    return float((tail * tail).sum())


class _Call(threading.Thread):
    """fn(*args) on a thread of its own.

    result() joins the thread, then returns what fn returned or raises what
    it raised, so an error in the thread reaches the caller as if fn had
    run there.
    """

    def __init__(self, fn, *args) -> None:
        super().__init__()
        self._call = (fn, args)
        self._value = None
        self._error: Optional[BaseException] = None

    def run(self) -> None:
        fn, args = self._call
        try:
            self._value = fn(*args)
        except BaseException as exc:  # re-raised by result() in the joining thread
            self._error = exc

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


def _verify_rows(seed: int, trials: int) -> List[Tuple[str, float, float, float, bool]]:
    """Run every self-check; rows are (name, observed, reference, margin, ok).

    observed must stay within margin of reference (or below reference +
    margin for one-sided rows). Sample sizes follow the trials knob with
    floors keeping the binomial slack meaningful.

    sample_z_correct runs on a second thread while the calling thread runs
    every other check. The thread is joined however the checks end, and an
    exception raised in it is raised here. Each check draws from its own
    stream, so the rows, always in the same order, do not depend on which
    thread finishes first.
    """
    if trials < 1:
        raise InvalidRangeError(f"need trials >= 1, got {trials}")
    if seed < 0:
        raise InvalidRangeError(f"need seed >= 0, got {seed}")
    rows: List[Tuple[str, float, float, float, bool]] = []
    n_samples = max(int(trials), 2000)

    def add(name, observed, reference, margin):
        rows.append((name, float(observed), float(reference), float(margin), bool(abs(observed - reference) <= margin)))

    def add_upper(name, observed, limit, margin):
        rows.append((name, float(observed), float(limit), float(margin), bool(observed <= limit + margin)))

    def add_moments(name, draws, mean_ref, var_ref):
        # Five-sigma bands; the sample variance's comes from the empirical
        # fourth moment.
        add(f"{name}_mean", draws.mean(), mean_ref, 5.0 * math.sqrt(var_ref / n_samples))
        var = draws.var(ddof=1)
        var_of_var = _fourth_central_moment(draws) - var**2
        add(f"{name}_var", var, var_ref, 5.0 * math.sqrt(max(var_of_var, 1e-12) / n_samples))

    # The correct-support sampler is the longest check, and numpy draws and
    # reduces its arrays with the GIL released, so the two threads overlap.
    m, k, s = 6, 2, 3
    spec_correct = QuadFormSpec.from_alpha([1.0] * s, m, k)
    mgf_ref = (1.0 - 0.2) ** (-s * (m - k) / 2)
    correct = _Call(sample_z_correct, m, k, s, n_samples, derive_rng(seed, ROLE_CHECK, 1))
    correct.start()
    try:
        # Residuals from the factorized projector match a dense Householder
        # QR, which calls no BLAS, so the printed gap is the same on any CPU.
        rng = derive_rng(seed, ROLE_CHECK, 0)
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(3, 12))
            k = int(rng.integers(1, m))
            block = rng.standard_normal((m, k))
            y = rng.standard_normal(m)
            dense = _householder_residual(block, y)
            fast = projection_residual(block, y)
            worst = max(worst, abs(fast - dense) / max(1.0, dense))

        # The correct-support form's MGF, sampled directly.
        q = sample_quadform(spec_correct, n_samples, derive_rng(seed, ROLE_CHECK, 2))

        # Incorrect-support statistic at heterogeneous energies.
        alphas = (1.0, 3.0)
        zj = sample_z_incorrect(alphas, 4, 2, n_samples, derive_rng(seed, ROLE_CHECK, 3))

        # Exponential tail inequalities at a homogeneous weight vector.
        check = laurent_massart_check([1.0] * 6, 1.0, n_samples, derive_rng(seed, ROLE_CHECK, 4))

        # Closed-form dominance and identities on a random parameter grid.
        rng = derive_rng(seed, ROLE_CHECK, 5)
        worst_p1 = -math.inf
        worst_p2 = -math.inf
        worst_d2 = 0.0
        worst_mu = 0.0
        for _ in range(200):
            n = int(rng.integers(6, 64))
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k + 1, min(n, k + 12) + 1))
            s = int(rng.integers(1, 9))
            sigma2 = float(10.0 ** rng.uniform(-2, 1))
            xmin2 = float(10.0 ** rng.uniform(-1, 2))
            rho = float(rng.uniform(1.2, 4.0))
            p = ProblemParams(n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=xmin2, rho=rho)
            rep = upper_bound_perr(p)
            worst_p1 = max(worst_p1, rep.log_p_d1 - rep.log_p1_exp)
            worst_p2 = max(worst_p2, rep.log_p_d2 - rep.log_p2_exp)
            worst_d2 = max(worst_d2, abs(rep.d2_alpha_star - (1.0 - rep.t)))
            scale = 1.0 + abs(rep.log_p_d1) + abs(rep.log_p_d2)
            worst_mu = max(
                worst_mu,
                abs(rep.log_p_d1 - p.s * rep.log_mu_I) / scale,
                abs(rep.log_p_d2 - p.s * rep.log_mu_J) / scale,
            )
    finally:
        correct.join()
    z = correct.result()

    add_upper("projector_vs_dense", worst, 0.0, 1e-9)
    # Correct-support statistic: chi-square moments and MGF.
    add_moments("z_correct", z, spec_correct.mean, spec_correct.variance)
    add("mgf_closed_form", quadform_mgf(spec_correct, 0.1), mgf_ref, 1e-12)
    # The same five-sigma band as the moments, from the sample's own spread.
    e = np.exp(0.1 * q)
    add("mgf_empirical", e.mean(), mgf_ref, 5.0 * math.sqrt(e.var(ddof=1) / n_samples))
    spec = QuadFormSpec.from_alpha(alphas, 4, 2)
    add_moments("z_incorrect", zj, spec.mean, spec.variance)
    add_upper("tail_upper_rate", check.upper_rate, check.bound, check.allowance)
    add_upper("tail_lower_rate", check.lower_rate, check.bound, check.allowance)
    add_upper("dominance_exp_vs_correct_tail", worst_p1, 0.0, 1e-12)
    add_upper("dominance_exp_vs_incorrect_tail", worst_p2, 0.0, 1e-12)
    add_upper("gap_identity_d2", worst_d2, 0.0, 1e-12)
    add_upper("per_vector_factor_identity", worst_mu, 0.0, 1e-9)
    return rows


def _cmd_verify(config: argparse.Namespace) -> int:
    with _open_out(config.out) as out:
        rows = _verify_rows(config.seed, config.trials)
        lines = ["name,observed,reference,margin,status"]
        for name, observed, reference, margin, ok in rows:
            lines.append(f"{name},{observed!r},{reference!r},{margin!r},{'pass' if ok else 'fail'}")
        _emit("\n".join(lines) + "\n", out)
    return 0 if all(row[4] for row in rows) else 3


_COMMAND_HANDLERS = {
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "find-m": _cmd_find_m,
    "verify": _cmd_verify,
}


def run(config: argparse.Namespace) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    return _COMMAND_HANDLERS[config.command](config)


def _show_warning(message, *_) -> None:
    """Print a warning as one line in the style of the error lines."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return run(parse_config(argv))
        except EnumerationBudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        except Jsm2LabError as exc:
            # a flag or file entry the parser refused (ConfigError), or a
            # value it let through that a computation then refused
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
