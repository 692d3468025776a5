"""Jointly sparse signals, Gaussian sensing matrices, and noisy measurements.

Model: S sparse vectors of length N share one unknown support of size K and
are observed as y^s = F^s x^s + n^s, where each F^s is an independent M x N
matrix with i.i.d. standard Gaussian entries and n^s is i.i.d. Gaussian
noise with variance noise_var. Every vector gets its own sensing matrix;
nothing except the support is shared between the S channels.

The S signals are a plain read-only (S, N) array. The support travels
beside them as a SupportSet to the consumers that need it (decode,
decode_trials, typicality_stat), none of which reads the signals.

The central signal quantity is the minimum residual energy: for a candidate
support J, the energy of x^s outside J is ||x^s restricted to I \\ J||^2, and
its minimum over all vectors and all incorrect candidates is
min_{s, i in I} x^s(i)^2, attained at a candidate missing exactly one
support index. The generators below guarantee every on-support magnitude is
at least x_min, so that minimum is at least x_min^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    InvalidRangeError,
)
from .seeding import Seed, as_rng

AMPLITUDE_FIXED = "fixed"
AMPLITUDE_UNIFORM = "uniform"
AMPLITUDE_MODES = (AMPLITUDE_FIXED, AMPLITUDE_UNIFORM)


def _readonly(a: np.ndarray, what: str) -> np.ndarray:
    """A read-only float copy of a; NaN or infinite entries are rejected."""
    out = np.array(a, dtype=float, copy=True)
    if not np.isfinite(out).all():
        raise InvalidParameterError(f"{what} must be finite")
    out.setflags(write=False)
    return out


def _is_whole(val) -> bool:
    """Whether val is a whole number (3 and 3.0 are; 2.7, inf, nan and "3" are not)."""
    try:
        return int(val) == val
    except (OverflowError, ValueError, TypeError):
        return False


@dataclass(frozen=True)
class SupportSet:
    """A size-K index set inside ambient dimension N, stored sorted.

    indices must be whole numbers, strictly increasing and in [0, ambient_dim),
    and ambient_dim a whole number.
    """

    indices: tuple
    ambient_dim: int

    def __post_init__(self):
        idx = tuple(self.indices)
        if not all(_is_whole(i) for i in idx):
            raise InvalidParameterError(f"support indices must be whole numbers, got {idx}")
        if not _is_whole(self.ambient_dim):
            raise InvalidParameterError(f"ambient_dim must be a whole number, got {self.ambient_dim}")
        idx = tuple(int(i) for i in idx)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "ambient_dim", int(self.ambient_dim))
        if len(idx) < 1:
            raise InvalidDimensionError("support must contain at least one index")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidParameterError(f"support indices must be strictly increasing, got {idx}")
        if idx[0] < 0 or idx[-1] >= self.ambient_dim:
            raise InvalidRangeError(
                f"support indices must lie in [0, {self.ambient_dim}), got {idx}"
            )

    @property
    def size(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)


@dataclass(frozen=True)
class SensingEnsemble:
    """S independent M x N matrices with i.i.d. standard Gaussian entries."""

    matrices: np.ndarray

    def __post_init__(self):
        m = _readonly(self.matrices, "matrices")
        if m.ndim != 3:
            raise InvalidDimensionError("matrices must be a (S, M, N) array")
        if m.shape[0] < 1:
            raise InvalidDimensionError("need at least one sensing matrix")
        object.__setattr__(self, "matrices", m)


@dataclass(frozen=True)
class MeasurementEnsemble:
    """S length-M measurement vectors; their noise variance is ProblemParams.sigma2."""

    measurements: np.ndarray

    def __post_init__(self):
        y = _readonly(np.atleast_2d(self.measurements), "measurements")
        if y.ndim != 2:
            raise InvalidDimensionError("measurements must be a (S, M) array")
        object.__setattr__(self, "measurements", y)


@dataclass(frozen=True)
class ProblemParams:
    """Dimensions and signal/noise levels of one recovery problem.

    Requires K < M <= N (every closed-form quantity divides by M - K),
    finite, strictly positive sigma2 and xmin2, and 1 < rho < inf (rho = inf
    would make the default slack 0). The typicality slack defaults to
    delta = (1/rho) * (1 - K/M) * xmin2 and can be overridden through
    delta_override (0 and +inf are allowed there for decoder studies; the
    bound formulas reject inadmissible values themselves).
    """

    n: int
    k: int
    m: int
    s: int
    sigma2: float
    xmin2: float
    rho: float = 2.0
    delta_override: Optional[float] = None

    def __post_init__(self):
        for name in ("n", "k", "m", "s"):
            val = getattr(self, name)
            if not _is_whole(val) or val < 1:
                raise InvalidParameterError(f"{name} must be a positive integer, got {val}")
            object.__setattr__(self, name, int(val))
        if not self.k < self.m <= self.n:
            raise InvalidParameterError(
                f"requires K < M <= N, got K={self.k}, M={self.m}, N={self.n}"
            )
        if not 0 < self.sigma2 < math.inf:
            raise InvalidParameterError(f"sigma2 must be finite and > 0, got {self.sigma2}")
        if not 0 < self.xmin2 < math.inf:
            raise InvalidParameterError(f"xmin2 must be finite and > 0, got {self.xmin2}")
        if not 1 < self.rho < math.inf:
            raise InvalidParameterError(f"rho must be finite and > 1, got {self.rho}")
        if self.delta_override is not None and not self.delta_override >= 0:
            raise InvalidRangeError(f"delta override must be >= 0, got {self.delta_override}")

    @property
    def snr_min(self) -> float:
        return self.xmin2 / self.sigma2

    @property
    def delta(self) -> float:
        if self.delta_override is not None:
            return float(self.delta_override)
        return (1.0 / self.rho) * (1.0 - self.k / self.m) * self.xmin2

    @property
    def x_min(self) -> float:
        return math.sqrt(self.xmin2)


# ---- Sampling ----------------------------------------------------------


def check_amplitudes(amplitude_mode: str, x_min: float, x_max: Optional[float]) -> None:
    """Refuse amplitudes that sample_sparse_ensemble cannot draw.

    x_min must be > 0 and amplitude_mode one of AMPLITUDE_MODES; uniform
    mode needs a finite x_max >= x_min, which fixed mode never consults.
    """
    if not x_min > 0:
        raise InvalidRangeError(f"x_min must be > 0, got {x_min}")
    if amplitude_mode not in AMPLITUDE_MODES:
        raise InvalidParameterError(
            f"amplitude_mode must be one of {AMPLITUDE_MODES}, got {amplitude_mode!r}"
        )
    if amplitude_mode == AMPLITUDE_UNIFORM and not (x_max is not None and x_min <= x_max < math.inf):
        raise InvalidRangeError(f"uniform amplitude needs a finite x_max >= x_min={x_min}, got {x_max}")


def sample_support(n: int, k: int, seed: Seed) -> SupportSet:
    """Draw a uniformly random size-k subset of {0, ..., n-1}."""
    if not 1 <= k <= n:
        raise InvalidDimensionError(f"need 1 <= K <= N, got K={k}, N={n}")
    rng = as_rng(seed)
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return SupportSet(tuple(int(i) for i in idx), n)


def sample_sparse_ensemble(
    support: SupportSet,
    s: int,
    x_min: float,
    amplitude_mode: str = AMPLITUDE_FIXED,
    x_max: Optional[float] = None,
    *,
    seed: Seed,
) -> np.ndarray:
    """Draw s jointly sparse vectors on the given support, as a read-only (s, N) array.

    amplitude_mode "fixed": every on-support entry is +-x_min with a random
    sign. amplitude_mode "uniform": magnitudes are uniform on [x_min, x_max]
    with random signs (x_max finite and >= x_min, as check_amplitudes
    requires). Either way the realized minimum on-support magnitude is >= x_min.
    """
    if s < 1:
        raise InvalidDimensionError(f"need at least one vector, got s={s}")
    check_amplitudes(amplitude_mode, x_min, x_max)
    rng = as_rng(seed)
    k = support.size
    signs = np.where(rng.random((s, k)) < 0.5, -1.0, 1.0)
    if amplitude_mode == AMPLITUDE_FIXED:
        mags = np.full((s, k), float(x_min))
    else:
        mags = rng.uniform(x_min, x_max, size=(s, k))
    vectors = np.zeros((s, support.ambient_dim))
    vectors[:, support.as_array()] = signs * mags
    vectors.setflags(write=False)
    return vectors


def sample_sensing(m: int, n: int, s: int, seed: Seed) -> SensingEnsemble:
    """Draw s independent m x n standard Gaussian sensing matrices."""
    if min(m, n, s) < 1:
        raise InvalidDimensionError(f"need M, N, S >= 1, got M={m}, N={n}, S={s}")
    rng = as_rng(seed)
    return SensingEnsemble(rng.standard_normal((s, m, n)))


def measure(
    x: np.ndarray,
    f: SensingEnsemble,
    noise_var: float,
    seed: Seed,
) -> MeasurementEnsemble:
    """Form y^s = F^s x^s + n^s with n^s i.i.d. Gaussian of variance noise_var.

    x is any (S, N) signal array (or nested list); it need not be sparse.
    A signal whose F x is not finite (a NaN or infinite entry, or a product
    that overflows) is refused with InvalidParameterError without a scan
    of its own: the matrices and the noise are finite, so only the signal
    can make the measurements that MeasurementEnsemble refuses. noise_var = 0
    gives exact noiseless measurements (useful for oracle tests; the bound
    formulas reject it separately because they divide by the noise
    variance).
    """
    x = np.asarray(x, dtype=float)
    if not 0 <= noise_var < math.inf:
        raise InvalidRangeError(f"noise_var must be finite and >= 0, got {noise_var}")
    # the (S, M, N) matrices' S and N against the (S, N) signals'
    if f.matrices.shape[::2] != x.shape:
        raise InvalidDimensionError(
            f"shape mismatch: matrices {f.matrices.shape} vs signals {x.shape}"
        )
    clean = np.einsum("smn,sn->sm", f.matrices, x)
    if noise_var > 0:
        rng = as_rng(seed)
        clean = clean + math.sqrt(noise_var) * rng.standard_normal(clean.shape)
    try:
        return MeasurementEnsemble(clean)
    except InvalidParameterError:
        raise InvalidParameterError("signal must be finite, and F x must not overflow") from None
