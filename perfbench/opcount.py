"""Computed operation counts for the decoder's Householder residual sweep.

These are model counts derived from the array shapes, not measurements.
One candidate-vector is one (candidate support, measurement vector) pair:
an M x K block of gathered sensing columns plus the length-M measurement,
factorized by K Householder steps, leaving a residual of length M - K.

Flop convention: a length-L dot product is 2L - 1 flops, a scaled vector
update y -= c * x is 2L, and every scalar add, multiply, divide or square
root is 1. Sign flips, copies and comparisons are free.

Byte convention (8-byte floats): the gather reads the K sensing columns
and the measurement and writes them to the work buffer; Householder step j
then reads and writes its trailing (M - j) x (K + 1 - j) block once; the
residual tail is read once.
"""

from __future__ import annotations

import math

WORD = 8


def householder_flops(m: int, k: int) -> int:
    """Flops to reduce one M x (K+1) candidate-vector block to its residual."""
    total = 0
    for j in range(k):
        length = m - j
        # ||x||^2, sqrt, v[0] -= alpha, ||v||^2, 2 / ||v||^2
        total += (2 * length - 1) + 1 + 1 + (2 * length - 1) + 1
        # each trailing column: v . col, scale * dot, col -= coef * v
        total += (k - j) * ((2 * length - 1) + 1 + 2 * length)
    if m > k:
        total += 2 * (m - k) - 1  # squared norm of the residual tail
    return total


def candidate_vector_bytes(m: int, k: int) -> int:
    """Bytes moved for one candidate-vector by the gather and the sweep."""
    words = m * k + m  # read the gathered sensing columns and the measurement
    words += m * (k + 1)  # write them into the work buffer
    for j in range(k):
        words += 2 * (m - j) * (k + 1 - j)  # step j reads and writes its block
    words += max(m - k, 0)  # read the residual tail
    return WORD * words


def candidate_vectors(n: int, k: int, s: int) -> int:
    """Candidate-vectors scored by one exhaustive decode: C(N, K) * S."""
    return math.comb(n, k) * s
