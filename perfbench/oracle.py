"""Dense least-squares reference for the typicality decoder.

Scores candidates one block at a time with ``np.linalg.lstsq``, which
shares no code with the package's batched Householder core. Centering and
threshold follow ``decode``: S(M-K) * params.sigma2 and S * M * delta.
Decisions closer than ``TIE_TOL`` to a boundary (the threshold, or the
runner-up's score) are flagged so a caller can tell round-off apart from a
wrong answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

TIE_TOL = 1e-8


def dense_stat(y: np.ndarray, f: np.ndarray, support: Tuple[int, ...], sigma2: float):
    """(value, centered, rank_ok) of one candidate from per-vector lstsq fits."""
    s, m, _ = f.shape
    k = len(support)
    value = 0.0
    rank_ok = True
    for si in range(s):
        block = f[si][:, list(support)]
        sol, _, rank, _ = np.linalg.lstsq(block, y[si], rcond=None)
        rank_ok = rank_ok and int(rank) == k
        r = y[si] - block @ sol
        value += float(r @ r)
    return value, value - s * (m - k) * sigma2, rank_ok


@dataclass(frozen=True)
class DenseOutcome:
    decoded: Optional[Tuple[int, ...]]
    correct_typical: bool
    num_incorrect_typical: int
    event_failure: bool
    decode_error: bool
    near_tie: bool


def dense_decode(
    y: np.ndarray,
    f: np.ndarray,
    sigma2: float,
    delta: float,
    true_support: Tuple[int, ...],
) -> DenseOutcome:
    """Exhaustive reference decode over every size-K support (lexicographic)."""
    s, m, n = f.shape
    k = len(true_support)
    threshold = s * m * delta
    tol = TIE_TOL * max(1.0, threshold)
    best, best_abs, runner_up = None, math.inf, math.inf
    correct_typical = False
    num_typical = 0
    near_tie = False
    for sup in itertools.combinations(range(n), k):
        _, centered, rank_ok = dense_stat(y, f, sup, sigma2)
        a = abs(centered)
        near_tie |= rank_ok and abs(a - threshold) < tol
        if not (rank_ok and a < threshold):
            continue
        num_typical += 1
        correct_typical |= sup == tuple(true_support)
        if a < best_abs:
            best, best_abs, runner_up = sup, a, best_abs
        else:
            runner_up = min(runner_up, a)
    near_tie |= runner_up - best_abs < tol
    num_incorrect = num_typical - int(correct_typical)
    return DenseOutcome(
        decoded=best,
        correct_typical=correct_typical,
        num_incorrect_typical=num_incorrect,
        event_failure=(not correct_typical) or num_incorrect > 0,
        decode_error=best != tuple(true_support),
        near_tie=near_tie,
    )
