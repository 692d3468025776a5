"""Independent reference implementations used only by the test suite.

Everything here is written the slow, obvious way: explicit Gram-matrix
projectors, naive loops over all candidate supports, direct formula
transcriptions. The package must agree with these, never import them.
"""

import decimal
import itertools
import math
import operator
from fractions import Fraction

import numpy as np


def dense_projection_residual(block, y):
    """||Q y||^2 with the explicit projector Q = I - F (F^T F)^{-1} F^T."""
    block = np.asarray(block, dtype=float)
    y = np.asarray(y, dtype=float)
    gram = block.T @ block
    q = np.eye(block.shape[0]) - block @ np.linalg.inv(gram) @ block.T
    r = q @ y
    return float(r @ r)


def dense_projection_residual_pinv(block, y):
    """Residual via pseudoinverse; well-defined even for deficient blocks."""
    block = np.asarray(block, dtype=float)
    y = np.asarray(y, dtype=float)
    q = np.eye(block.shape[0]) - block @ np.linalg.pinv(block)
    r = q @ y
    return float(r @ r)


def exact_residual(block, y):
    """y^T y - b^T G^{-1} b exactly, for G = F^T F and b = F^T y, as a Fraction.

    Every float is an integer over a power of two, so [F y] scaled by the
    largest of those powers is an integer matrix with an exact integer Gram
    matrix. Gaussian elimination on its first k pivots, in Fractions,
    leaves the Schur complement of G, the scaled residual, in the last
    entry. Nothing is rounded, so the value does not depend on the platform.
    """
    aug = np.column_stack([np.asarray(block, dtype=float), np.asarray(y, dtype=float)])
    ratios = [[x.as_integer_ratio() for x in col] for col in aug.T.tolist()]
    scale = max(q for col in ratios for _, q in col)
    cols = [[p * (scale // q) for p, q in col] for col in ratios]
    g = [[Fraction(sum(map(operator.mul, a, b))) for b in cols] for a in cols]
    for j in range(len(g) - 1):
        for row in g[j + 1 :]:
            f = row[j] / g[j][j]
            for c in range(j + 1, len(g)):
                row[c] -= f * g[j][c]
    return g[-1][-1] / scale**2


def brute_force_stats(y_arr, f_arr, noise_var, k, delta):
    """Typicality bookkeeping for every size-k candidate, naive loops.

    y_arr is (s, m), f_arr is (s, m, n). Returns a list of
    (support_tuple, value, centered, typical) in lexicographic order.
    """
    y_arr = np.asarray(y_arr, dtype=float)
    f_arr = np.asarray(f_arr, dtype=float)
    s, m, n = f_arr.shape
    threshold = s * m * delta
    rows = []
    for sup in itertools.combinations(range(n), k):
        cols = list(sup)
        value = 0.0
        rank_ok = True
        for si in range(s):
            block = f_arr[si][:, cols]
            if np.linalg.matrix_rank(block) < k:
                rank_ok = False
            value += dense_projection_residual_pinv(block, y_arr[si])
        centered = value - s * (m - k) * noise_var
        typical = bool(rank_ok and abs(centered) < threshold)
        rows.append((sup, value, centered, typical))
    return rows


def brute_force_decode(y_arr, f_arr, noise_var, k, delta, true_support):
    """Reference decoder: smallest |centered| among typical, lex tie-break.

    Returns (decoded_tuple_or_None, correct_typical, num_incorrect_typical,
    event_failure, decode_error).
    """
    rows = brute_force_stats(y_arr, f_arr, noise_var, k, delta)
    best = None
    best_abs = math.inf
    correct_typical = False
    num_typical = 0
    for sup, _value, centered, typical in rows:
        if not typical:
            continue
        num_typical += 1
        if sup == true_support:
            correct_typical = True
        if abs(centered) < best_abs:
            best_abs = abs(centered)
            best = sup
    num_incorrect = num_typical - int(correct_typical)
    event_failure = (not correct_typical) or num_incorrect > 0
    decode_error = best != true_support
    return best, correct_typical, num_incorrect, event_failure, decode_error


def naive_upper_log(n, k, m, s, sigma2, xmin2, rho):
    """Direct float transcription of the combined failure bound (log nats)."""
    delta = (1.0 / rho) * (1.0 - k / m) * xmin2
    d1 = m * delta / ((m - k) * sigma2)
    alpha_star = sigma2 + xmin2
    d2 = ((m - k) * sigma2 + m * delta) / ((m - k) * alpha_star)
    beta = s * (m - k) / 2.0
    log_p1 = beta * (math.log(1.0 + d1) - d1)
    log_p2 = beta * (math.log(d2) - (d2 - 1.0))
    log_c = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    big = max(math.log(2.0) + log_p1, log_c + log_p2)
    return big + math.log(
        math.exp(math.log(2.0) + log_p1 - big) + math.exp(log_c + log_p2 - big)
    )


def log1pmx_reference(x, digits=60):
    """log(1 + x) - x of a float x > -1, as a Decimal to the given significant digits.

    Below |x| = 1/2 the alternating series -x^2/2 + x^3/3 - ..., summed
    exactly from the float's own value, which has no cancellation; above it
    decimal's ln, where too little cancels to matter.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        d = decimal.Decimal(x)
        if abs(d) >= decimal.Decimal("0.5"):
            total = (1 + d).ln() - d
        else:
            total, power, n = decimal.Decimal(0), d, 1
            while True:
                n += 1
                power *= -d
                term = power / n
                total += term
                if abs(term) <= abs(total).scaleb(-digits - 5):
                    break
        ctx.prec = digits
        return +total
