"""Projection residuals, the delta-joint-typicality test, and exhaustive decoding.

A candidate support J is scored by the summed residual energy of every
measurement vector after projecting out the corresponding sensing columns,

    value(J) = sum_s || y^s - proj_{span(F^s_J)} y^s ||^2 .

When J covers the true support that value is pure projected noise with
expectation S(M-K) sigma2; the typicality test accepts J when the centered
value lies strictly inside a window of half-width S*M*delta and every block
F^s_J has full column rank K. The slack delta is params.delta: the default
of ProblemParams or its delta_override, which that class validates. The
exhaustive decoder enumerates all C(N, K) candidates in lexicographic
order, records which are typical, and returns the typical candidate whose
centered value is smallest in magnitude (lexicographic tie-break). Failure
bookkeeping distinguishes the event that the true support is not typical
from the event that at least one incorrect candidate is typical; their
union is the quantity the closed-form bounds control.

Residuals come from modified Gram-Schmidt (MGS) on the augmented matrix
[F^s_J y^s], never from a Gram-matrix inverse: each pivot column in turn is
removed from every later column and from y. The norms of the deflated
pivot columns are the factor diagonal |R_jj|, and the rank test requires
the smallest above RANK_TOL times the largest.

The exhaustive decoder shares that work across candidates. In lexicographic
order a candidate's first K-1 columns are shared by all of its siblings, so
each prefix is deflated once: its state is the columns after its last index
and y, with the prefix's span projected out, plus the running extremes of
its pivots. Extending a prefix by one column costs one more deflation of
the columns that follow. The walk goes depth-first over index tables cached
per (N, K), in chunks of sibling groups of at most _WALK_SCORES scores
(a group of leaves with more is cut into parts of that many), and yields
each leaf chunk's residual energies and rank flags per measurement
vector. A chunk's parents are consecutive entries of the level above
(the first and last may have only part of their children in it), so
np.repeat by their child counts hands each child its parent's
column, divisor, deflated y and pivot extremes; the one gather left picks
each child's own column from its parent's siblings, and that gather index
and the child offsets are all the tables keep (see _prefix_tables). A
deflation writes its product into the parent columns repeated for it, and
at a leaf below the root into the candidate's own columns, both
temporaries nothing reads again; the root columns may be a view of the
caller's matrices and are never written. Each walk has its own buffer
set, kept between walks in one process (see _trial_scores): every level
gathers its children's columns into one buffer and the leaf writes its
coefficients into another, while the np.repeat outputs stay fresh
arrays, since repeat has no out= and a take into a buffer is about 2x
slower. Where a score falls in its chunk can move its last bit only in a
single-vector walk (see _WALK_SCORES).

The walk does not care which trial a vector belongs to, so one walk scores
a stack of T trials as T*S vectors. Its callers sum each trial's S vectors
and hand the (T, candidates) scores to one selection step, vectorised over
trials: it counts typical candidates, records the true support's verdict
(its position read from the prefix tables the walk enumerates) and keeps
each trial's running best by a strict < across chunks and the first
occurrence of the minimum within one, so ties go to the lexicographically
smallest support. The same step turns its per-trial counts, verdicts and
best positions into the failure events (TrialEvents), which decode_trials
returns for the T trials that trials_per_walk allows and decode reads row
0 of at T = 1. typicality_stat reads the scores of its one candidate from
the same walk, and one shape check of the (T, S, M, N) and (T, S, M)
stacks serves all three. Every decode refuses a problem of more than
ENUMERATION_CAP candidates before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .ensemble import MeasurementEnsemble, ProblemParams, SensingEnsemble, SupportSet
from .errors import EnumerationBudgetError, InvalidDimensionError, RankDeficientError

# Relative diagonal tolerance declaring a block rank-deficient.
RANK_TOL = 1e-10

# Exhaustive enumeration refuses above this many candidate supports.
ENUMERATION_CAP = 10**6

# Vector-candidate scores one walk holds at a time: trials_per_walk stacks as
# many trials as keep T * S * C(N, K) within it, and the walk cuts each level
# into chunks of _WALK_SCORES // (T * S) candidates, one at the least, cutting
# a sibling group of leaves that alone has more. Small problems pay per call,
# not per flop; larger arrays stop paying off once they leave cache. Part of
# the output bytes only when T * S = 1: a one-output einsum rounds the vector
# body and the scalar tail of its inner loop differently, so a score's last
# bit depends on its place in a chunk (at N=9, K=2 a chunk of 1 moves some);
# more vectors sum row by row, and _trial_scores adds them in order.
_WALK_SCORES = 16384


@dataclass(frozen=True)
class TypicalityStat:
    """Raw, centered, and threshold values of one typicality test.

    typical is true when every per-vector block had full column rank and
    |centered| < threshold.
    """

    value: float
    centered: float
    threshold: float
    rank_ok: bool = True

    @property
    def typical(self) -> bool:
        return bool(_typical(self.rank_ok, abs(self.centered), self.threshold))


@dataclass(frozen=True)
class TrialEvents:
    """Failure events of a stack of T decoded trials, one array entry per trial.

    The fields mean what DecodeOutcome's do: correct_typical and
    decode_error are boolean arrays, num_incorrect_typical an integer
    array, and event_failure their union.
    """

    correct_typical: np.ndarray
    num_incorrect_typical: np.ndarray
    decode_error: np.ndarray

    @property
    def event_failure(self) -> np.ndarray:
        return ~self.correct_typical | (self.num_incorrect_typical > 0)


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoder decision plus failure-event bookkeeping for one instance.

    decoded is None when no candidate is typical. The event fields are None
    unless the true support was supplied: correct_typical reports whether
    the true support passed the test, num_incorrect_typical counts typical
    incorrect candidates, event_failure is their union (the bounded
    quantity), and decode_error reports decoded != true support.
    """

    decoded: Optional[SupportSet]
    correct_typical: Optional[bool] = None
    num_incorrect_typical: Optional[int] = None
    event_failure: Optional[bool] = None
    decode_error: Optional[bool] = None


# ---- Modified Gram-Schmidt core -----------------------------------------
#
# Every array below keeps the measurement rows on axis 0.


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared column norms of v, reduced over the row axis 0."""
    return np.einsum("i...,i...->...", v, v)


def _pivots(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Norms |R_jj| of the pivot columns v, and the divisors that deflate by them.

    The divisors are the squared norms with zeros replaced by 1: a zero
    column has no direction, so deflating by it is the identity.
    """
    sq = _sq_norms(v)
    div = np.where(sq > 0.0, sq, 1.0)
    return np.sqrt(sq, out=sq), div


def _deflate(
    cols: np.ndarray,
    v: np.ndarray,
    div: np.ndarray,
    spent: bool = False,
    coef: Optional[np.ndarray] = None,
) -> None:
    """One MGS step in place: remove from cols their components along v.

    A spent v is a temporary its caller is done with: it receives the
    product v * coef instead of a new array. coef, when given, is an array
    of div's shape that receives the coefficients instead of a new one.
    """
    coef = np.einsum("i...,i...->...", v, cols, out=coef)
    coef /= div
    cols -= np.multiply(v, coef, out=v if spent else None)


def _rank_ok(pivot_min: np.ndarray, pivot_max: np.ndarray) -> np.ndarray:
    """Full column rank: the smallest pivot |R_jj| above RANK_TOL times the largest."""
    return pivot_min > RANK_TOL * pivot_max


def residual_energies(blocks: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Residual energies for a stack of (m, k) blocks and length-m vectors.

    blocks has shape (..., m, k) and ys shape (..., m); returns arrays of
    shape (...) with the residual energies and the rank-ok flags. Modified
    Gram-Schmidt on the augmented matrix [block y] deflates every later
    column by each pivot in turn; the residual is the squared norm of the
    fully deflated y and the pivots are the deflated column norms |R_jj|.
    An (m, 0) block spans nothing and has full column rank 0, so it leaves
    ||y||^2 and passes the rank test.

    The whole stack goes through one (m, k+1, count) work array. A block's
    bits do not depend on the stack it is in: each block goes through the
    same operations in the same order in any stack. The callers keep the
    stack in cache: a quadstats sampler chunk holds at most 2^16 scalars.
    """
    blocks = np.asarray(blocks, dtype=float)
    ys = np.asarray(ys, dtype=float)
    lead = blocks.shape[:-2]
    m, k = blocks.shape[-2], blocks.shape[-1]
    if ys.shape != lead + (m,):
        raise InvalidDimensionError(
            f"measurement stack shape {ys.shape} does not match blocks {blocks.shape}"
        )
    count = math.prod(lead)
    work = np.empty((m, k + 1, count))
    work[:, :k] = blocks.reshape(count, m, k).transpose(1, 2, 0)
    work[:, k] = ys.reshape(count, m).T
    pivots = np.empty((k, count))
    for j in range(k):
        pivots[j], div = _pivots(work[:, j])
        for c in range(j + 1, k + 1):
            _deflate(work[:, c], work[:, j], div)
    resid = _sq_norms(work[:, k])
    rank_ok = _rank_ok(pivots.min(axis=0, initial=np.inf), pivots.max(axis=0, initial=0.0))
    return resid.reshape(lead), rank_ok.reshape(lead)


def projection_residual(f_block: np.ndarray, y: np.ndarray) -> float:
    """Energy of y left after projecting onto the column span of f_block.

    Computed as the squared norm of y after modified Gram-Schmidt deflation
    by every column of f_block, so no Gram matrix is formed. Raises
    RankDeficientError when the numerical column rank is below k (smallest
    deflated column norm under RANK_TOL times the largest).
    """
    f_block = np.asarray(f_block, dtype=float)
    y = np.asarray(y, dtype=float)
    if f_block.ndim != 2 or y.ndim != 1 or f_block.shape[0] != y.shape[0]:
        raise InvalidDimensionError(
            f"expected (m, k) block and length-m vector, got {f_block.shape} and {y.shape}"
        )
    m, k = f_block.shape
    if m < k:
        raise RankDeficientError(f"block of shape {f_block.shape} cannot have column rank {k}")
    resid, rank_ok = residual_energies(f_block[None], y[None])
    if not rank_ok[0]:
        raise RankDeficientError("sensing block is numerically rank-deficient")
    return float(resid[0])


# ---- Typicality and decoding -------------------------------------------


def _check_stacks(matrices: np.ndarray, measurements: np.ndarray, params: ProblemParams) -> None:
    """Require T stacked instances: (T, S, M, N) matrices and (T, S, M) measurements."""
    s, m, n = params.s, params.m, params.n
    t = matrices.shape[0]
    if matrices.shape != (t, s, m, n) or measurements.shape != (t, s, m):
        raise InvalidDimensionError(
            f"matrices {matrices.shape} and measurements {measurements.shape} "
            f"do not match params (s={s}, m={m}, n={n})"
        )


def _check_support(j: SupportSet, params: ProblemParams) -> None:
    """Require a size-K support of range(N): a candidate, or a true support to score."""
    if j.size != params.k or j.ambient_dim != params.n:
        raise InvalidDimensionError(
            f"support {j.indices} (n={j.ambient_dim}) does not match k={params.k}, n={params.n}"
        )


def _window(params: ProblemParams) -> Tuple[float, float]:
    """Center S(M-K) sigma2 and half-width S*M*delta of the typicality window."""
    s, m = params.s, params.m
    return s * (m - params.k) * params.sigma2, s * m * params.delta


def _typical(rank_ok, abs_centered, threshold):
    """The typicality test: full column rank and |centered| strictly inside the window."""
    return rank_ok & (abs_centered < threshold)


def typicality_stat(
    j: SupportSet,
    y: MeasurementEnsemble,
    f: SensingEnsemble,
    params: ProblemParams,
) -> TypicalityStat:
    """Evaluate the typicality test decode applies to candidate support j.

    The value is scored by decode's own core on the K columns of j; the
    centered value subtracts S(M-K) params.sigma2 and the threshold is
    S*M*params.delta. A rank-deficient block marks the stat not typical
    while the value is still reported.
    """
    _check_stacks(f.matrices[None], y.measurements[None], params)
    _check_support(j, params)
    center, threshold = _window(params)
    columns = f.matrices[None, :, :, j.as_array()]
    _, value, ok = next(_trial_scores(columns, y.measurements[None], j.size))
    value = float(value[0, 0])
    return TypicalityStat(value, value - center, threshold, bool(ok[0, 0]))


# One (child_off, unc) pair per non-leaf level of the prefix tree
_Tables = Tuple[Tuple[np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=6)
def _prefix_tables(n: int, k: int) -> _Tables:
    """Index tables of the prefix tree over size-k subsets of range(n).

    Level l lists, in lexicographic order, every pair (p, c) of an
    extendable prefix p of length l-1 (one that starts some size-k support)
    and a column c after p's last index; the pair is the length-l prefix
    p + (c,). Level 1 lists column c at position c, and level k the
    candidate supports. Each level l < k gets one pair (child_off, unc):
    the children of entry i are entries child_off[i]:child_off[i+1] of
    level l+1, and unc[j] is the position in level l of p[:-1] + (c,) for
    child j = p + (c,), the sibling of p whose column child j gathers.
    These are the only tables the walk reads; an entry's prefix follows
    from child_off alone (see _support_at).
    """
    col = np.arange(n)
    tables = []
    for depth in range(1, k):
        # an entry extends to a size-k support only if k - depth columns follow it
        counts = np.where(col <= n - k + depth - 1, n - 1 - col, 0)
        off = np.zeros(col.size + 1, dtype=np.intp)
        np.cumsum(counts, out=off[1:])
        # child j of entry p is column col[p] + 1 + (j - off[p]), and p's
        # sibling with that column sits j - off[p] + 1 places after p
        unc = np.repeat(np.arange(col.size) + 1 - off[:-1], counts)
        unc += np.arange(off[-1])
        col = col[unc]
        off.setflags(write=False)
        unc.setflags(write=False)
        tables.append((off, unc))
    return tuple(tables)


def _chunks(off: np.ndarray, lo: int, hi: int, size: int, split: bool):
    """Cut the children of entries lo..hi-1 into runs (p_lo, p_hi, c_lo, c_hi).

    A run's children are entries c_lo:c_hi of the next level, children of
    entries p_lo:p_hi: whole sibling groups of at most size children, or a
    single group alone when it has more. With split, such a group is cut
    into parts of size children, its parent repeated in each run; without
    it the group stays whole, as children that have children of their own
    gather columns from their siblings. Runs without children are skipped.
    """
    while lo < hi:
        end = hi
        if off[hi] - off[lo] > size:
            end = max(int(np.searchsorted(off, off[lo] + size, side="right")) - 1, lo + 1)
        c_lo, c_hi = int(off[lo]), int(off[end])
        step = size if split else max(1, c_hi - c_lo)
        for c in range(c_lo, c_hi, step):
            yield lo, end, c, min(c + step, c_hi)
        lo = end


# Buffer sets of the walks that have ended in this process, one dict each
# (see _trial_scores)
_IDLE_BUFFERS: list = []


def _buffer(bufs: dict, key, shape: Tuple[int, ...]) -> np.ndarray:
    """A C-contiguous float array of the given shape from a walk's buffer set.

    The set keeps one flat array per key and grows it when a larger shape
    asks; a smaller shape gets a view of its first elements. The contents
    are whatever the key's last use left.
    """
    size = math.prod(shape)
    buf = bufs.get(key)
    if buf is None or buf.size < size:
        buf = bufs[key] = np.empty(size)
    return buf[:size].reshape(shape)


def _walk(tables, depth, lo, v, ry, pivot_min, pivot_max, counts, bufs):
    """Residual energies and rank flags of the candidates below a block of prefixes.

    The block is entries lo, lo+1, ... of level depth, the children of a run
    of consecutive parent prefixes, and counts holds how many of them each
    parent has (zero for some). v (m, s, b) holds, for each prefix x, column
    x[-1] of every sensing matrix with the span of x[:-1] projected out; its
    norms are the pivots |R_jj| of x[-1]. ry (m, s, p), pivot_min and
    pivot_max (s, p) hold the deflated measurements and the running pivot
    extremes of the parents, which np.repeat by counts lines up with their
    children. v is never written at depth 1, where it may be a view of the
    caller's matrices; below it, the leaf's v is spent on its one deflation.
    bufs is the walk's buffer set: each level gathers its children's
    columns into ("child", depth), and the leaf takes its coefficients from
    "coef". Yields (first candidate index, values, rank-ok flags) chunk by
    chunk in lexicographic order, both of shape (s, candidates): one row
    per measurement vector.
    """
    norms, div = _pivots(v)
    pivot_min = np.repeat(pivot_min, counts, axis=1)
    np.minimum(pivot_min, norms, out=pivot_min)
    pivot_max = np.repeat(pivot_max, counts, axis=1)
    np.maximum(pivot_max, norms, out=pivot_max)
    ry = np.repeat(ry, counts, axis=2)
    if depth > len(tables):
        _deflate(ry, v, div, spent=depth > 1, coef=_buffer(bufs, "coef", div.shape))
        yield lo, _sq_norms(ry), _rank_ok(pivot_min, pivot_max)
        return
    _deflate(ry, v, div)
    off, unc = tables[depth - 1]
    size = max(1, _WALK_SCORES // v.shape[1])
    split = depth == len(tables)  # the children are leaves
    for p_lo, p_hi, c_lo, c_hi in _chunks(off, lo, lo + v.shape[2], size, split):
        counts = np.diff(off[p_lo : p_hi + 1].clip(c_lo, c_hi))
        parents = slice(p_lo - lo, p_hi - lo)
        # mode="clip" (the indices are in range) lets take write into out
        # directly; the default mode="raise" gathers into a temporary first
        child = _buffer(bufs, ("child", depth), v.shape[:2] + (c_hi - c_lo,))
        np.take(v, unc[c_lo:c_hi] - lo, axis=2, out=child, mode="clip")
        rep = np.repeat(v[:, :, parents], counts, axis=2)
        _deflate(child, rep, np.repeat(div[:, parents], counts, axis=1), spent=True)
        del rep  # spent, and not held across the recursion
        state = ry[:, :, parents], pivot_min[:, parents], pivot_max[:, parents]
        yield from _walk(tables, depth + 1, c_lo, child, *state, counts, bufs)


def _trial_scores(matrices: np.ndarray, measurements: np.ndarray, k: int):
    """Residual energies and rank flags of every size-k support in each of t trials.

    matrices is (t, s, m, n) and measurements (t, s, m). One walk scores all
    t*s vectors; yields (first candidate index, values summed over each
    trial's s vectors, rank-ok flags over them) chunk by chunk, in
    lexicographic order of the supports, both of shape (t, candidates).

    The walk checks a buffer set out of _IDLE_BUFFERS when it starts, or
    makes a new one when none is idle, and returns it when it ends, closed
    early too. So a walk that starts while another is suspended never
    shares its buffers, and consecutive walks in one process reuse the
    same memory instead of having it trimmed and faulted in again.
    """
    t, s, m, n = matrices.shape
    vectors = t * s
    # level 1 is the raw columns, the n children of the empty prefix, which
    # deflates nothing and has no pivots: running min +inf, running max 0
    ft = np.ascontiguousarray(matrices.reshape(vectors, m, n).transpose(1, 0, 2))
    root = measurements.reshape(vectors, m).T[:, :, None]
    pivot_min, pivot_max = np.full((vectors, 1), np.inf), np.zeros((vectors, 1))
    tables = _prefix_tables(n, k)
    bufs = _IDLE_BUFFERS.pop() if _IDLE_BUFFERS else {}
    try:
        for lo, value, ok in _walk(tables, 1, 0, ft, root, pivot_min, pivot_max, [n], bufs):
            c = value.shape[1]
            v = value.reshape(t, s, c)
            # sum adds each trial's s vectors in order across a chunk of
            # several candidates but pairwise along a chunk of one, where a
            # running sum keeps the order (and is slow across several)
            total = v.sum(axis=1) if c > 1 else np.add.accumulate(v, axis=1)[:, -1]
            yield lo, total, ok.reshape(t, s, c).all(axis=1)
    finally:
        _IDLE_BUFFERS.append(bufs)


def _select(
    matrices: np.ndarray,
    measurements: np.ndarray,
    params: ProblemParams,
    true_support: Optional[SupportSet],
) -> Tuple[TrialEvents, np.ndarray]:
    """The selection step over every candidate of t trials scored in one walk.

    matrices and measurements are stacked as _check_stacks requires. Returns
    the failure events of each trial against the true support (meaningless
    without one) and the lexicographic position of each trial's typical
    candidate with the smallest |centered| value (-1 when none is typical).
    Chunks arrive in lexicographic order, and a strict < across chunks with
    the first occurrence of the minimum within one keeps the earliest tie.
    """
    _check_stacks(matrices, measurements, params)
    center, threshold = _window(params)
    check_enumeration_budget(params)
    i_true = -1
    if true_support is not None:
        _check_support(true_support, params)
        i_true = _lex_rank(_prefix_tables(params.n, params.k), true_support.indices)
    t = matrices.shape[0]
    num_typical = np.zeros(t, dtype=np.int64)
    true_typical = np.zeros(t, dtype=bool)
    best_abs = np.full(t, math.inf)
    best = np.full(t, -1, dtype=np.intp)
    for lo, value, ok in _trial_scores(matrices, measurements, params.k):
        abs_centered = np.abs(value - center)
        typical = _typical(ok, abs_centered, threshold)
        num_typical += typical.sum(axis=1)
        if lo <= i_true < lo + value.shape[1]:
            true_typical = typical[:, i_true - lo]
        # a row's smallest full-rank |centered| is its best typical candidate
        # when that one passes the test; fmin skips NaN. Only rows whose best
        # improves look for the position, the first equal entry, which is the
        # earliest of a tie
        cand_abs = np.fmin.reduce(abs_centered, axis=1, where=ok, initial=math.inf)
        better = _typical(True, cand_abs, threshold) & (cand_abs < best_abs)
        if better.any():
            rows = np.flatnonzero(better)
            hit = (abs_centered[rows] == cand_abs[rows, None]) & ok[rows]
            best_abs[rows] = cand_abs[rows]
            best[rows] = lo + hit.argmax(axis=1)
    events = TrialEvents(
        correct_typical=true_typical,
        num_incorrect_typical=num_typical - true_typical,
        decode_error=best != i_true,
    )
    return events, best


def _support_at(tables: _Tables, i: int) -> Tuple[int, ...]:
    """The candidate support at position i of the last level, _lex_rank's inverse.

    An entry's parent is the entry of the level above whose child_off run
    holds it, and its column follows the parent's by its place in that run
    plus one; level 1 lists column c at position c.
    """
    path = [i]
    for off, _ in reversed(tables):
        path.append(int(np.searchsorted(off, path[-1], side="right")) - 1)
    path.reverse()
    out = [path[0]]
    for (off, _), p, i in zip(tables, path, path[1:]):
        out.append(out[-1] + 1 + i - int(off[p]))
    return tuple(out)


def _lex_rank(tables: _Tables, indices: Tuple[int, ...]) -> int:
    """Position of a sorted size-k index tuple in the last level, _support_at's inverse.

    Level 1 lists column c at position c, and the children of a prefix
    ending in column p list columns p+1, p+2, ... from its child_off entry.
    """
    i = indices[0]
    for (off, _), prev, col in zip(tables, indices, indices[1:]):
        i = int(off[i]) + col - prev - 1
    return i


def check_enumeration_budget(params: ProblemParams) -> None:
    """Raise EnumerationBudgetError when C(N, K) exceeds ENUMERATION_CAP."""
    total = math.comb(params.n, params.k)
    if total > ENUMERATION_CAP:
        raise EnumerationBudgetError(
            f"C({params.n},{params.k}) = {total} exceeds enumeration cap {ENUMERATION_CAP}"
        )


def decode(
    y: MeasurementEnsemble,
    f: SensingEnsemble,
    params: ProblemParams,
    true_support: Optional[SupportSet] = None,
) -> DecodeOutcome:
    """Exhaustive typicality decoding over all C(N, K) candidate supports.

    Enumerates candidates lexicographically, applies the typicality test
    with the slack params.delta, and selects the typical candidate
    minimizing |centered|, breaking ties toward the lexicographically
    smallest. With true_support supplied the outcome also carries the
    failure events, the ones decode_trials reports for a stack of one.

    Raises EnumerationBudgetError before any work when C(N, K) exceeds
    ENUMERATION_CAP.
    """
    n = params.n
    events, best = _select(f.matrices[None], y.measurements[None], params, true_support)
    decoded = None
    if best[0] >= 0:
        decoded = SupportSet(_support_at(_prefix_tables(n, params.k), int(best[0])), n)
    if true_support is None:
        return DecodeOutcome(decoded)
    return DecodeOutcome(
        decoded=decoded,
        correct_typical=bool(events.correct_typical[0]),
        num_incorrect_typical=int(events.num_incorrect_typical[0]),
        event_failure=bool(events.event_failure[0]),
        decode_error=bool(events.decode_error[0]),
    )


def trials_per_walk(params: ProblemParams) -> int:
    """Trials to stack per decode_trials call: T*S*C(N, K) within _WALK_SCORES, and T >= 1."""
    return max(1, _WALK_SCORES // (params.s * math.comb(params.n, params.k)))


def decode_trials(
    matrices: np.ndarray,
    measurements: np.ndarray,
    params: ProblemParams,
    true_support: SupportSet,
) -> TrialEvents:
    """Decode a stack of T trials that share one true support, in one walk.

    matrices is (T, S, M, N) and measurements (T, S, M): trial t is the
    instance decode would get as SensingEnsemble(matrices[t]) and
    MeasurementEnsemble(measurements[t]), and its events are the ones decode
    reports for it. trials_per_walk bounds the T worth stacking.
    """
    return _select(matrices, measurements, params, true_support)[0]
