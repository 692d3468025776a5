"""Distributional oracles for the quadratic forms behind the typicality test.

The summed residual energies are Gaussian quadratic forms y^T R y with a
block-diagonal, projector-shaped R: under the correct support every block
contributes the noise floor with multiplicity M-K, under an incorrect
support each block contributes its centering energy alpha_s (noise floor
plus missed signal energy) with the same multiplicity. QuadFormSpec
describes such a form by its eigenvalues and is the one source of its
exact mean and variance (QuadFormSpec.from_alpha builds the residual-sum
form from the centering energies); quadform_mgf gives its moment
generating function. Direct samplers and an empirical check of the
exponential tail inequalities used by the closed-form bounds complete the
module. The decoder and bound tests lean on these as independent
references.

The samplers work in chunks of _SAMPLE_CHUNK scalar draws. The z samplers'
values depend on the chunk size, since each chunk draws its blocks before
its noise. sample_quadform's values do not: it draws its normals in order
and sums each row on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .bounds import log_binom
from .decoder import residual_energies
from .errors import DomainError, InvalidRangeError
from .seeding import Seed, as_rng

# Scalar draws per sampler chunk. residual_energies scores a chunk's blocks
# as one stack, so this size keeps a z sampler's blocks and measurements, at
# most 512 KB, in L2 while they are drawn and reduced. Part of the z samplers'
# bytes, since each chunk draws all its blocks before its noise; not of
# sample_quadform's.
_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class QuadFormSpec:
    """Eigenvalue description of a centered Gaussian quadratic form.

    The form is Q = sum_i lam_i g_i^2 with g_i i.i.d. standard normal;
    mean and variance are therefore sum(lam) and 2 sum(lam^2).
    """

    eigenvalues: Tuple[float, ...]
    mean: float = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self):
        lams = tuple(float(v) for v in self.eigenvalues)
        if not lams:
            raise InvalidRangeError("eigenvalue list must be nonempty")
        if not all(v > 0 for v in lams):
            raise InvalidRangeError("eigenvalues must all be > 0")
        object.__setattr__(self, "eigenvalues", lams)
        object.__setattr__(self, "mean", float(sum(lams)))
        object.__setattr__(self, "variance", float(2.0 * sum(v * v for v in lams)))

    @classmethod
    def from_alpha(cls, alpha_list: Sequence[float], m: int, k: int) -> "QuadFormSpec":
        """Spec of the residual-sum form: each energy with multiplicity m - k."""
        if not m > k:
            raise InvalidRangeError(f"need M > K, got M={m}, K={k}")
        lams = tuple(float(a) for a in alpha_list for _ in range(m - k))
        return cls(lams)


def quadform_mgf(spec: QuadFormSpec, t: float) -> float:
    """Moment generating function E[exp(tQ)] = prod_i (1 - 2 t lam_i)^{-1/2}.

    Finite only for t < 1 / (2 max lam); evaluated through logs so large
    eigenvalue counts cannot overflow.
    """
    lam_max = max(spec.eigenvalues)
    if not t < 1.0 / (2.0 * lam_max):
        raise DomainError(
            f"mgf argument t={t} at or beyond singularity 1/(2*{lam_max})"
        )
    log_mgf = -0.5 * sum(math.log1p(-2.0 * t * lam) for lam in spec.eigenvalues)
    return math.exp(log_mgf)


# ---- Direct samplers -----------------------------------------------------


def sample_quadform(spec: QuadFormSpec, trials: int, seed: Seed) -> np.ndarray:
    """Draw trials independent realizations of the quadratic form."""
    if trials < 1:
        raise InvalidRangeError(f"need at least one trial, got {trials}")
    rng = as_rng(seed)
    lams = np.asarray(spec.eigenvalues)
    out = np.zeros(trials)
    step = max(1, _SAMPLE_CHUNK // lams.size)
    for lo in range(0, trials, step):
        hi = min(lo + step, trials)
        g = rng.standard_normal((hi - lo, lams.size))
        # einsum, not @: BLAS would round the row sums by the CPU kernel OpenBLAS picks.
        out[lo:hi] = np.einsum("ij,j->i", np.square(g, out=g), lams)
    return out


def sample_z_correct(m: int, k: int, s: int, trials: int, seed: Seed) -> np.ndarray:
    """Sample the noise-normalized correct-support statistic end to end.

    Each trial draws fresh Gaussian sensing blocks and noise, projects the
    noise off every block's column span, and sums the residual energies
    over the S vectors in units of the noise variance. Matches the
    decoder's statistic at the true support because the clean measurement
    component lies inside the span. That is the incorrect-support sampler
    with every centering energy equal to one.
    """
    return sample_z_incorrect([1.0] * s, m, k, trials, seed)


def sample_z_incorrect(
    alpha_list: Sequence[float],
    m: int,
    k: int,
    trials: int,
    seed: Seed,
) -> np.ndarray:
    """Sample the incorrect-support statistic from its generating model.

    Under an incorrect candidate the measurement seen by each block is an
    isotropic Gaussian with per-coordinate variance alpha_s (noise floor
    plus missed signal energy routed through independent Gaussian columns),
    independent of the block itself. Returns the unnormalized residual sum.
    """
    if trials < 1:
        raise InvalidRangeError(f"need at least one trial, got {trials}")
    alphas = np.asarray(alpha_list, dtype=float)
    QuadFormSpec.from_alpha(alphas, m, k)  # M > K and positive energies
    s = alphas.size
    rng = as_rng(seed)
    scale = np.sqrt(alphas)[:, None]
    out = np.empty(trials)
    step = max(1, _SAMPLE_CHUNK // (s * m * (k + 1)))
    for lo in range(0, trials, step):
        hi = min(lo + step, trials)
        b = hi - lo
        blocks = rng.standard_normal((b, s, m, k))
        ys = rng.standard_normal((b, s, m))
        ys *= scale
        resid, rank_ok = residual_energies(blocks, ys)
        if not rank_ok.all():
            # Gaussian blocks are almost surely full rank; a failure here
            # means the tolerance is wrong, not the draw.
            raise DomainError("rank-deficient Gaussian block encountered")
        out[lo:hi] = resid.sum(axis=1)
    return out


# ---- Exponential tail inequalities ---------------------------------------


@dataclass(frozen=True)
class TailCheckResult:
    """Empirical verdict on the two-sided weighted chi-square tail bounds.

    upper_rate and lower_rate are the observed exceedance frequencies of
    Y = sum alpha_i (g_i^2 - 1) beyond 2|a|_2 sqrt(x) + 2|a|_inf x and
    below -2|a|_2 sqrt(x). Each must stay within the analytic ceiling
    exp(-x) plus a one-sided 99% binomial allowance; passed is the
    conjunction.
    """

    x: float
    trials: int
    bound: float
    allowance: float
    upper_rate: float
    lower_rate: float
    upper_ok: bool
    lower_ok: bool

    @property
    def passed(self) -> bool:
        return self.upper_ok and self.lower_ok


def _binom_isf(q: float, n: int, p: float) -> int:
    """Smallest k with P(X > k) <= q for X ~ Binomial(n, p), as scipy's binom.isf.

    Sums the upper tail downward, through the pmf ratio
    pmf(k-1) / pmf(k) = k (1-p) / ((n-k+1) p), from 13 standard deviations
    plus 40 above the mean, where the tail beyond is below 1e-26 (Bernstein),
    to just under the mean; a quantile with q < 1/2 lies between the two.
    """
    if not 0.0 < p < 1.0:
        return n if p == 1.0 else 0
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    hi = min(n, math.ceil(mean + 13.0 * sd + 40.0))
    lo = max(0, math.floor(mean) - 1)
    log_pmf = log_binom(n, hi) + hi * math.log(p) + (n - hi) * math.log1p(-p)
    k = np.arange(hi, lo, -1, dtype=float)
    ratios = k * (1.0 - p) / ((n - k + 1.0) * p)
    # pmf(hi), pmf(hi-1), ..., pmf(lo) summed in turn: tail[j] = P(X > hi - j - 1)
    tail = np.cumsum(np.cumprod(np.concatenate(([math.exp(log_pmf)], ratios))))
    return max(0, hi - int(np.searchsorted(tail, q, side="right")))


def laurent_massart_check(
    alpha_list: Sequence[float],
    x: float,
    trials: int,
    seed: Seed,
) -> TailCheckResult:
    """Empirically verify both exponential tail bounds at level x.

    Y is drawn trials times by sample_quadform over the positive weights (a
    zero weight adds nothing to Y); the exceedance counts are compared against
    the largest count consistent (at one-sided 99% confidence) with a true
    rate of exp(-x). Requires trials >= 1000 so the binomial allowance is
    meaningful.
    """
    if not x > 0:
        raise InvalidRangeError(f"tail level x must be > 0, got {x}")
    if trials < 1000:
        raise InvalidRangeError(f"need at least 1000 trials, got {trials}")
    alphas = np.asarray(alpha_list, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise InvalidRangeError("alpha_list must be a nonempty vector")
    if (alphas < 0).any():
        raise InvalidRangeError("weights must be nonnegative")
    if not (alphas > 0).any():
        raise InvalidRangeError("at least one weight must be positive")
    # exact for verify's unit weights in any BLAS order: every partial sum is an integer
    norm2 = float(np.linalg.norm(alphas))
    norm_inf = float(np.max(np.abs(alphas)))
    upper_cut = 2.0 * norm2 * math.sqrt(x) + 2.0 * norm_inf * x
    lower_cut = -2.0 * norm2 * math.sqrt(x)

    y = sample_quadform(QuadFormSpec(alphas[alphas > 0]), trials, seed) - alphas.sum()
    n_upper = int(np.count_nonzero(y >= upper_cut))
    n_lower = int(np.count_nonzero(y <= lower_cut))

    bound = math.exp(-x)
    # Largest exceedance count still consistent with a true rate <= bound.
    crit = _binom_isf(0.01, trials, bound)
    allowance = max(0.0, crit / trials - bound)
    limit = bound + allowance
    return TailCheckResult(
        x=float(x),
        trials=trials,
        bound=bound,
        allowance=allowance,
        upper_rate=n_upper / trials,
        lower_rate=n_lower / trials,
        upper_ok=n_upper / trials <= limit,
        lower_ok=n_lower / trials <= limit,
    )
