"""The package's own log-gamma, isotonic fit and binomial quantile match scipy bit for bit.

bounds.log_binom, montecarlo.trend_residual and the allowance of
quadstats.laurent_massart_check are printed with repr by the bounds, sweep
and verify commands, so each port must give exactly the value of the scipy
function it replaces: gammaln, isotonic_regression and binom.isf. scipy is
a test dependency only, imported here as the reference.
"""

import math

import numpy as np
import pytest
from scipy.optimize import isotonic_regression
from scipy.special import gammaln
from scipy.stats import binom

from jsm2lab.bounds import _log_gamma, log_binom
from jsm2lab.montecarlo import trend_residual
from jsm2lab.quadstats import _binom_isf


def test_log_gamma_matches_gammaln_bit_for_bit():
    xs = list(range(1, 300_001)) + [10**8 - 1, 10**8, 10**8 + 1, 10**9, 2**40]
    want = gammaln(np.array(xs, dtype=float))
    got = np.array([_log_gamma(x) for x in xs])
    assert np.flatnonzero(got != want).tolist() == []


def test_log_binom_matches_its_gammaln_form():
    grid = [(n, k) for n in range(0, 400) for k in range(0, n + 1, 7)]
    grid += [(10**8, 3), (2**40, 5), (300_000, 150_000)]
    for n, k in grid:
        want = float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
        assert log_binom(n, k) == want, (n, k)


def _isotonic_residual(values: np.ndarray) -> float:
    if values.size <= 1:
        return 0.0
    fit = isotonic_regression(values, increasing=False).x
    return float(np.max(np.abs(fit - values)))


def test_trend_residual_matches_isotonic_regression():
    rng = np.random.default_rng(2022)
    for i in range(20_000):
        size = int(rng.integers(1, 15))
        if i % 3 == 0:  # few distinct values: many ties and pooled blocks
            values = rng.integers(0, 4, size) / int(rng.integers(1, 7))
        elif i % 3 == 1:
            values = np.round(rng.random(size), 2)
        else:
            values = rng.random(size)
        values = values.astype(float)
        assert trend_residual(values) == _isotonic_residual(values), values.tolist()


# (trials, x) of every laurent_massart_check call: verify at its 2,000-sample
# floor, its default and the output digests' and benchmark's trial counts;
# tests/test_quadstats.py; tests/test_acceptance.py; demos/tail_oracles.py
CALLED = sorted(
    {(n, 1.0) for n in (2_000, 10_000, 20_000, 200_000)}
    | {(5_000, 20.0), (50_000, 1.0), (50_000, 2.0), (2_000, 1.0)}
    | {(100_000, x) for x in (0.5, 1.0, 2.0)}
    | {(50_000, x) for x in (0.5, 1.0, 2.0)}
)


@pytest.mark.parametrize("trials, x", CALLED)
def test_binomial_quantile_matches_isf_where_called(trials, x):
    assert _binom_isf(0.01, trials, math.exp(-x)) == binom.isf(0.01, trials, math.exp(-x))


def test_binomial_quantile_matches_isf_on_a_grid():
    rng = np.random.default_rng(3577)
    trials = rng.integers(1_000, 300_001, 3_000)
    xs = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3_000))
    got = [_binom_isf(0.01, int(n), math.exp(-x)) for n, x in zip(trials, xs)]
    want = binom.isf(0.01, trials, np.exp(-xs))
    assert np.flatnonzero(np.array(got) != want).tolist() == []


@pytest.mark.parametrize("p", [0.0, 1e-300, 1.0 - 2.0**-53, 1.0])
def test_binomial_quantile_at_the_ends_of_the_rate(p):
    assert _binom_isf(0.01, 1_000, p) == binom.isf(0.01, 1_000, p)
