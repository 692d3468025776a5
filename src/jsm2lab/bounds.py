"""Closed-form failure-probability bounds and measurement-count conditions.

Everything here is a pure function of problem parameters. The achievability
side bounds the probability that exhaustive typicality decoding fails (the
union of "true support not typical" and "some incorrect support typical"),
the converse side lower-bounds what any decoder can achieve on the minimal
amplitude class, and sufficiency_report evaluates every measurement and
vector count under which the upper bound vanishes (the tight count and
Corollaries 1 and 2, each in the linear and the sublinear regime, and
Corollary 3) beside the converse count. Every closed form is evaluated at
the least-favorable point of the minimum SNR: each vector misses x_min^2
and is centered at alpha* = sigma^2 + x_min^2.

All probabilities are computed and stored in the log domain (nats):
exponents scale like S(M-K) and overflow doubles immediately otherwise.
Binomial coefficients go through log-gamma and the combined bound through
log-sum-exp. Raw log values are preserved alongside clamped probabilities
so dominance comparisons stay exact even where a bound exceeds one.
Every Chernoff exponent, mu factor and nu2 is log(1 + x) - x of a
dimensionless ratio, from one kernel that keeps its digits as x -> 0.
Where a finite but extreme point takes a closed form out of float range
(SNR 1e-300), the reports raise DomainError.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .ensemble import ProblemParams
from .errors import (
    DeltaAdmissibilityError,
    DomainError,
    InvalidParameterError,
    InvalidRangeError,
)

_LOG2 = math.log(2.0)

# cephes lgam's log(sqrt(2 pi)) and Stirling-series coefficients, the
# highest power of 1/x^2 first
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


# ---- Scalar kernels ------------------------------------------------------


def _log1pmx(x: float) -> float:
    """log(1 + x) - x for x > -1, within a few ulp wherever the value is a normal float.

    The direct form cancels as x -> 0, so below |x| = 1/8 the series of
    log(1 + x) = 2 artanh(u) in u = x / (2 + x) is used instead:
    log(1 + x) - x = -x u + 2 (u^3/3 + u^5/5 + ...), with |u| <= 1/15.
    """
    if abs(x) >= 0.125:
        return math.log1p(x) - x
    u = x / (2.0 + x)
    u2 = u * u
    series = 0.0
    for j in range(17, 1, -2):
        series = series * u2 + 1.0 / j
    return -x * u + 2.0 * u * u2 * series


def _log_gamma(x: int) -> float:
    """log Gamma(x) of an integer x >= 1, with the bits of scipy.special.gammaln.

    A port of cephes lgam, which gammaln runs, for integer arguments: the
    log of (x-1)! below 13, and above it Stirling's series, cut to three
    terms from 1000 and to none above 1e8. math.lgamma differs from it in
    the last bit at about half the integers, and log_binom's values are
    printed with repr.
    """
    if x < 13:
        return math.log(math.factorial(x - 1))
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        return q + (series + 0.0833333333333333333333) / x
    series = 0.0
    for c in _STIRLING:
        series = series * p + c
    return q + series / x


def log_binom(n: int, k: int) -> float:
    """log C(n, k) in nats via log-gamma, for integers 0 <= k <= n.

    numpy integers are accepted; a float, even an integral one, is refused.
    """
    try:
        n, k = operator.index(n), operator.index(k)
    except TypeError:
        raise InvalidRangeError(f"need integers n and k, got n={n!r}, k={k!r}") from None
    if not 0 <= k <= n:
        raise InvalidRangeError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _log_gamma(n + 1) - _log_gamma(k + 1) - _log_gamma(n - k + 1)


def t_value(params: ProblemParams) -> float:
    """Relative gap t = (1 - 1/rho) / (1 + 1/SNR_min), always in (0, 1).

    This single number drives every sufficiency constant: 1 - t is the
    centered mean of the incorrect-support statistic under the canonical
    slack, at the least-favorable signal energy.
    """
    t = (1.0 - 1.0 / params.rho) / (1.0 + 1.0 / params.snr_min)
    if not 0.0 < t < 1.0:
        raise DomainError(f"relative gap t={t} outside (0, 1)")
    return t


def _in_float_range(report):
    """report(params), raising DomainError where its closed forms leave float range."""
    @functools.wraps(report)
    def checked(params: ProblemParams):
        try:
            return report(params)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"closed forms leave float range at {params}: {exc.args[-1]}") from None
    return checked


# ---- Reports -------------------------------------------------------------


def csv_cells(obj, columns: Sequence[Tuple[str, str]]) -> List[str]:
    """The CSV cells of obj under (column, attribute path) pairs, in their order.

    A path is dotted ("params.n"), and its cell is empty when a step of it
    is None. A string is written as it is, an int in decimal, and any other
    number as the repr of its float, which reads back exactly.
    """
    cells = []
    for _, path in columns:
        value = obj
        for name in path.split("."):
            value = None if value is None else getattr(value, name)
        if value is None or isinstance(value, str):
            cells.append(value or "")
        else:
            cells.append(str(value) if isinstance(value, int) else repr(float(value)))
    return cells


# (CSV column, attribute path) of the parameter point both reports start with
_POINT_COLUMNS = tuple(
    (name, f"params.{name}") for name in ("n", "k", "m", "s", "sigma2", "xmin2", "rho")
)


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form quantity attached to one parameter point.

    log_upper_perr is the raw combined log bound on the failure event of
    typicality decoding; upper_perr clamps it into [0, 1]. lower_perr is
    the converse bound on the worst-case error of any decoder over the
    minimal-amplitude signal class; it bounds a different quantity than
    the upper bound and the two need not bracket a common number.
    log_p1_exp and log_p2_exp are the looser exponential-form bounds
    evaluated at the least-favorable homogeneous signal energy, so
    log_p_d1 <= log_p1_exp and log_p_d2 <= log_p2_exp hold pointwise.
    """

    params: ProblemParams
    d1: float
    t: float
    d2_alpha_star: float
    alpha_star: float
    log_p_d1: float
    log_p_d2: float
    log_binom: float
    log_upper_perr: float
    log_p1_exp: float
    log_p2_exp: float
    log_mu_I: float
    log_mu_J: float
    lower_perr: float

    # Read from the logs; the clamp goes first, so no exp overflows.
    upper_perr = property(lambda self: math.exp(min(0.0, self.log_upper_perr)))
    mu_I = property(lambda self: math.exp(self.log_mu_I))
    mu_J = property(lambda self: math.exp(self.log_mu_J))

    def csv_row(self) -> str:
        return ",".join(csv_cells(self, _BOUND_COLUMNS))


# (CSV column, attribute) of every cell of a BoundReport row, in order
_BOUND_COLUMNS = _POINT_COLUMNS + (
    ("d1", "d1"), ("t", "t"), ("d2", "d2_alpha_star"),
    ("log_p_d1", "log_p_d1"), ("log_p_d2", "log_p_d2"),
    ("log_upper", "log_upper_perr"), ("lower", "lower_perr"),
    ("mu_i", "mu_I"), ("mu_j", "mu_J"),
    ("log_p1_exp", "log_p1_exp"), ("log_p2_exp", "log_p2_exp"),
    ("alpha_star", "alpha_star"), ("upper_clamped", "upper_perr"),
)
BOUND_REPORT_CSV_HEADER = ",".join(column for column, _ in _BOUND_COLUMNS)


@dataclass(frozen=True)
class SufficiencyReport:
    """Measurement and vector-count conditions at one parameter point.

    The cor2 fields are populated only when SNR_min backs Corollary 2's
    midpoint split constant (snr_threshold_cor2 records the needed level,
    which is 1); otherwise they are NaN. S_cor3 is Corollary 3's vector
    count for failure probability 0.01, evaluated at the minimal M = K + 1
    regardless of the M carried by params.
    """

    params: ProblemParams
    nu1: float
    nu2: float
    M_suff_linear: float
    M_suff_sublinear: float
    M_suff_cor1_linear: float
    M_suff_cor1_sublinear: float
    M_suff_cor2_linear: float
    M_suff_cor2_sublinear: float
    snr_threshold_cor2: float
    S_cor3: float
    M_necessary: float

    def csv_row(self) -> str:
        return ",".join(csv_cells(self, _SUFFICIENCY_COLUMNS))


# (CSV column, attribute) of every cell of a SufficiencyReport row, in order
_SUFFICIENCY_COLUMNS = _POINT_COLUMNS + (
    ("nu1", "nu1"), ("nu2", "nu2"),
    ("m_linear", "M_suff_linear"), ("m_sublinear", "M_suff_sublinear"),
    ("m_cor1_linear", "M_suff_cor1_linear"), ("m_cor1_sublinear", "M_suff_cor1_sublinear"),
    ("m_cor2_linear", "M_suff_cor2_linear"), ("m_cor2_sublinear", "M_suff_cor2_sublinear"),
    ("snr_threshold_cor2", "snr_threshold_cor2"), ("s_cor3", "S_cor3"),
    ("m_necessary", "M_necessary"),
)
SUFFICIENCY_CSV_HEADER = ",".join(column for column, _ in _SUFFICIENCY_COLUMNS)


# ---- Achievability -------------------------------------------------------


def log_mu_factors(params: ProblemParams) -> Tuple[float, float]:
    """Per-vector log contraction factors (log mu_I, log mu_J), both < 0.

    log mu_I = ((M-K)/2)(log(1+d1) - d1) at the active slack; log mu_J =
    ((M-K)/2)(log(1-t) + t) at the canonical slack and least-favorable
    energy. The S-vector tail terms are exactly S times these.
    """
    k, m = params.k, params.m
    d1 = m * params.delta / ((m - k) * params.sigma2)
    t = t_value(params)
    return 0.5 * (m - k) * _log1pmx(d1), 0.5 * (m - k) * _log1pmx(-t)


def exp_ineq_bounds(params: ProblemParams) -> Tuple[float, float]:
    """Exponential-form log bounds on the two failure events at the least-favorable point.

    Every vector misses x_min^2 and is centered at alpha* = sigma^2 + x_min^2,
    so the S centering energies square-sum to S * alpha*^2. Written on
    r = delta / sigma^2 and g = gap / alpha*, with r multiplied in last, so
    no intermediate leaves float range before the value does. Requires the
    slack 0 < delta < (1 - K/M) * x_min^2. Returns (log_p1_exp, log_p2_exp).
    """
    k, m, s = params.k, params.m, params.s
    sigma2, xmin2 = params.sigma2, params.xmin2
    delta = params.delta
    limit = (1.0 - k / m) * xmin2
    if not 0.0 < delta < limit:
        raise DeltaAdmissibilityError(
            f"slack delta={delta} violates 0 < delta < (1 - K/M) * x_min^2 = {limit}"
        )
    r = delta / sigma2
    log_p1 = -(s * r / 4.0) * m**2 / (m - k + 2.0 * r * m) * r
    g = (xmin2 - m * delta / (m - k)) / (sigma2 + xmin2)
    log_p2 = -(s * (m - k) / 4.0) * g * g
    return log_p1, log_p2


@_in_float_range
def upper_bound_perr(params: ProblemParams) -> BoundReport:
    """Combined closed-form bound on the decoding failure event.

    Evaluates the two tail terms at the least-favorable signal energy
    (noise floor plus minimal on-support energy), combines them with the
    candidate count via log-sum-exp, and gathers every intermediate value
    into a BoundReport. The active slack must satisfy
    0 < delta < (1 - K/M) * x_min^2.
    """
    n, k, m, s = params.n, params.k, params.m, params.s
    sigma2, xmin2 = params.sigma2, params.xmin2
    delta = params.delta
    alpha_star = sigma2 + xmin2
    log_p1_exp, log_p2_exp = exp_ineq_bounds(params)
    d1 = m * delta / ((m - k) * sigma2)
    d2 = ((m - k) * sigma2 + m * delta) / ((m - k) * alpha_star)
    beta = 0.5 * s * (m - k)
    # d2 - 1 is exact wherever the kernel sums its series (d2 > 7/8, Sterbenz)
    log_p_d1 = beta * _log1pmx(d1)
    log_p_d2 = beta * _log1pmx(d2 - 1.0)
    lb = log_binom(n, k)
    log_upper = float(np.logaddexp(_LOG2 + log_p_d1, lb + log_p_d2))
    t = t_value(params)
    log_mu_i, log_mu_j = log_mu_factors(params)
    return BoundReport(
        params=params,
        d1=d1,
        t=t,
        d2_alpha_star=d2,
        alpha_star=alpha_star,
        log_p_d1=log_p_d1,
        log_p_d2=log_p_d2,
        log_binom=lb,
        log_upper_perr=log_upper,
        log_p1_exp=log_p1_exp,
        log_p2_exp=log_p2_exp,
        log_mu_I=log_mu_i,
        log_mu_J=log_mu_j,
        lower_perr=fano_lower_perr(params),
    )


# ---- Sufficient measurement counts --------------------------------------


def _nu2(t: float) -> float:
    return -2.0 / _log1pmx(-t)


def sufficient_M(params: ProblemParams) -> float:
    """Measurement count above which the combined bound decays to zero.

    The sublinear form K + nu2 * (K/S) * log(N/K) with
    nu2 = -2 / (log(1-t) + t). Strict inequality against this value is the
    sufficiency condition; sufficiency_report adds the linear form and
    Corollaries 1 and 2.
    """
    n, k, s = params.n, params.k, params.s
    nu2 = _nu2(t_value(params))
    return k + nu2 * (k / s) * math.log(n / k)


def _corollary_counts(params: ProblemParams, factor: float) -> Tuple[float, float]:
    """Linear and sublinear counts K + factor*K*(1 - log(K/N)) and K + factor*K*log(N/K)."""
    n, k = params.n, params.k
    return k + factor * k * (1.0 - math.log(k / n)), k + factor * k * math.log(n / k)


def corollary3_S_bound(params: ProblemParams, epsilon: float) -> float:
    """Vector count guaranteeing failure probability below epsilon at M = K+1.

    Requires params.m == k + 1 (the minimal measurement count) and uses the
    canonical slack x_min^2 / (rho (K+1)) regardless of any override. The
    value decreases as SNR_min grows.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidRangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    n, k, m = params.n, params.k, params.m
    if m != k + 1:
        raise InvalidParameterError(f"vector-count bound requires M = K+1, got M={m}, K={k}")
    canonical = replace(params, delta_override=params.xmin2 / (params.rho * (k + 1)))
    log_mu_i, log_mu_j = log_mu_factors(canonical)
    log_c2 = float(np.logaddexp(log_binom(n, k), _LOG2))
    return (log_c2 - math.log(epsilon)) * max(1.0 / abs(log_mu_i), 1.0 / abs(log_mu_j))


def corollary3_S_bound_high_snr(params: ProblemParams, epsilon: float) -> float:
    """Limit of corollary3_S_bound as SNR_min grows without bound.

    The correct-support term vanishes and the incorrect-support factor
    tends to 2 / |1 - 1/rho - log rho|, leaving a function of N, K, rho,
    and epsilon only.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidRangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    n, k = params.n, params.k
    rho = params.rho
    log_c2 = float(np.logaddexp(log_binom(n, k), _LOG2))
    return (log_c2 - math.log(epsilon)) * 2.0 / abs(1.0 - 1.0 / rho - math.log(rho))


# ---- Converse ------------------------------------------------------------


def necessary_M(params: ProblemParams) -> float:
    """Measurement count below which every decoder has failure bounded away from 0.

    Returns (2 K log(N/K) - 2 log 2) / (S log(1 + K SNR_min)). When the
    numerator is nonpositive (N/K too small) the bound is vacuous: a
    RuntimeWarning is emitted and 0 is returned.
    """
    n, k, s = params.n, params.k, params.s
    numerator = 2.0 * k * math.log(n / k) - 2.0 * _LOG2
    if numerator <= 0.0:
        warnings.warn(
            f"necessary measurement count is vacuous at N={n}, K={k} "
            "(candidate set too small); returning 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return numerator / (s * math.log1p(k * params.snr_min))


def fano_lower_perr(params: ProblemParams) -> float:
    """Worst-case decoding-error floor at the given parameter point.

    Returns max(0, 1 - (S M log(1 + K SNR_min)/2 + log 2) / (K log(N/K))).
    The floor applies to the minimal-amplitude signal class, uniformly over
    decoders.
    """
    n, k, m, s = params.n, params.k, params.m, params.s
    numerator = 0.5 * s * m * math.log1p(k * params.snr_min) + _LOG2
    return max(0.0, 1.0 - numerator / (k * math.log(n / k)))


# ---- Order-level comparison ----------------------------------------------


@dataclass(frozen=True)
class MmvOrderReport:
    """Order-level measurement counts for the shared-matrix baseline and this model.

    Both values hide unspecified constants; only their growth rates are
    meaningful, which ratio makes scannable across parameter sweeps. Never
    read these as calibrated measurement counts.
    """

    mmv_low_noise: float
    jsm2: float
    ratio: float


def mmv_order_comparison(params: ProblemParams) -> MmvOrderReport:
    """Order-level comparison against the shared-matrix multiple-vector baseline.

    mmv_low_noise carries K log N / min(K, S); jsm2 carries
    K + (nu2/S) K log(N/K). ratio = mmv_low_noise / jsm2. For S >= K the
    baseline stays pinned at K log N / K while the per-vector gain here
    keeps shrinking the additive term.
    """
    n, k, s = params.n, params.k, params.s
    mmv = k * math.log(n) / min(k, s)
    jsm2 = sufficient_M(params)
    return MmvOrderReport(mmv_low_noise=mmv, jsm2=jsm2, ratio=mmv / jsm2)


# ---- Gathered sufficiency view -------------------------------------------


@_in_float_range
def sufficiency_report(params: ProblemParams) -> SufficiencyReport:
    """Evaluate every sufficiency and necessity condition at one point.

    The tight counts use nu2 = -2 / (log(1-t) + t): K + nu1 * K/S in the
    linear regime, with nu1 = nu2 * (1 - log(K/N)), and sufficient_M in the
    sublinear one. Corollary 1 replaces nu2/S by the looser 4 / (S t^2).
    Corollary 2 is taken at the midpoint alpha = (1 - 1/rho)/2 of its split
    range, where its factor is (1/S + 1/(S*SNR_min)) * (4 - 2 alpha) /
    ((1 - 1/rho) alpha), backed by SNR_min >= alpha / ((1 - 1/rho) - alpha),
    which is 1 at the midpoint. Below that level the cor2 fields are NaN
    rather than an error, so sweeps over low-SNR points still produce rows.
    """
    n, k, s = params.n, params.k, params.s
    snr = params.snr_min
    t = t_value(params)
    nu2 = _nu2(t)
    nu1 = nu2 * (1.0 - math.log(k / n))
    cor1_lin, cor1_sub = _corollary_counts(params, 4.0 / (s * t * t))
    gap = 1.0 - 1.0 / params.rho
    alpha = 0.5 * gap
    threshold = alpha / (gap - alpha)
    if snr >= threshold:
        factor = (1.0 / s + 1.0 / (s * snr)) * (4.0 - 2.0 * alpha) / (gap * alpha)
        cor2_lin, cor2_sub = _corollary_counts(params, factor)
    else:
        cor2_lin = cor2_sub = math.nan
    return SufficiencyReport(
        params=params,
        nu1=nu1,
        nu2=nu2,
        M_suff_linear=k + nu1 * k / s,
        M_suff_sublinear=sufficient_M(params),
        M_suff_cor1_linear=cor1_lin,
        M_suff_cor1_sublinear=cor1_sub,
        M_suff_cor2_linear=cor2_lin,
        M_suff_cor2_sublinear=cor2_sub,
        snr_threshold_cor2=threshold,
        S_cor3=corollary3_S_bound(replace(params, m=params.k + 1), 0.01),
        M_necessary=necessary_M(params),
    )
