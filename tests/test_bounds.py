import math
import warnings
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from jsm2lab.bounds import (
    BOUND_REPORT_CSV_HEADER,
    SUFFICIENCY_CSV_HEADER,
    _log1pmx,
    corollary3_S_bound,
    corollary3_S_bound_high_snr,
    exp_ineq_bounds,
    fano_lower_perr,
    log_binom,
    log_mu_factors,
    mmv_order_comparison,
    necessary_M,
    sufficiency_report,
    sufficient_M,
    t_value,
    upper_bound_perr,
)
from jsm2lab.ensemble import ProblemParams
from jsm2lab.errors import (
    DeltaAdmissibilityError,
    InvalidParameterError,
    InvalidRangeError,
)
from oracles import log1pmx_reference

# canonical hand-checked operating point: delta = 3.75, d1 = 5, t = 5/11
HAND = ProblemParams(n=10, k=2, m=8, s=4, sigma2=1.0, xmin2=10.0, rho=2.0)


def _random_params(rng, n_hi=64, s_hi=8):
    n = int(rng.integers(6, n_hi))
    k = int(rng.integers(1, min(n // 2, 6) + 1))
    m = int(rng.integers(k + 1, n + 1))
    s = int(rng.integers(1, s_hi))
    sigma2 = float(10.0 ** rng.uniform(-2, 1))
    xmin2 = float(10.0 ** rng.uniform(-1, 2))
    rho = float(rng.uniform(1.2, 8.0))
    return ProblemParams(n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=xmin2, rho=rho)


def _ulps(value, reference):
    """|value - reference| in ulps of the reference's float."""
    return abs(Decimal(value) - reference) / Decimal(math.ulp(float(reference)))


class TestChernoffKernel:
    # log(1 + x) - x, the log of the chi-square Chernoff kernel at the ratio 1 + x

    def test_zero_at_one(self):
        assert _log1pmx(0.0) == 0.0

    def test_frozen_value(self):
        assert _log1pmx(1.0) == pytest.approx(math.log(2.0) - 1.0, rel=1e-12)

    def test_strictly_negative_away_from_one(self):
        for x in (-0.99, -0.7, -0.001, -1e-150, 1e-150, 0.001, 1.0, 49.0):
            assert _log1pmx(x) < 0.0
        rng = np.random.default_rng(403)
        for _ in range(40):
            rep = upper_bound_perr(_random_params(rng))
            assert rep.log_p_d1 < 0.0 and rep.log_p_d2 < 0.0

    def test_scales_linearly_in_beta(self):
        # the tail terms' beta = S (M - K) / 2 is the only place S enters them
        rng = np.random.default_rng(402)
        for _ in range(40):
            p = _random_params(rng)
            rep, rep10 = upper_bound_perr(p), upper_bound_perr(replace(p, s=10 * p.s))
            assert rep10.log_p_d1 == pytest.approx(10.0 * rep.log_p_d1, rel=1e-15)
            assert rep10.log_p_d2 == pytest.approx(10.0 * rep.log_p_d2, rel=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_within_four_ulp_of_the_reference_below_an_eighth(self, sign):
        # from 2.2e-154 down the value, about -x^2/2, is no longer a normal float
        for mag in np.geomspace(2.2250738585072014e-154, 0.125, 1000, endpoint=False):
            x = sign * float(mag)
            assert _ulps(_log1pmx(x), log1pmx_reference(x)) <= 4, x

    def test_direct_form_from_an_eighth(self):
        for x in (0.125, -0.125, 0.17, -0.3, 0.5, -0.5, -0.999, 5.0, 1e10, 1e300):
            assert _log1pmx(x) == math.log1p(x) - x

    def test_tail_terms_are_the_kernel_at_the_printed_tilts(self):
        # beta (log(1 + x) - x) at x = d1 and x = d2 - 1 against 60 digits:
        # within 4 ulp where the kernel sums its series, and within the direct
        # form's own rounding (17 ulp near 1/8, fewer above) elsewhere
        rng = np.random.default_rng(401)
        small = 0
        for _ in range(200):
            p = _random_params(rng)
            rep = upper_bound_perr(p)
            beta = Decimal(p.s * (p.m - p.k)) / 2
            for cell, x in ((rep.log_p_d1, rep.d1), (rep.log_p_d2, rep.d2_alpha_star - 1.0)):
                small += abs(x) < 0.125
                assert _ulps(cell, beta * log1pmx_reference(x)) <= (4 if abs(x) < 0.125 else 32)
        assert small > 20


class TestUpperBound:
    def test_hand_point(self):
        rep = upper_bound_perr(HAND)
        assert rep.d1 == pytest.approx(5.0, rel=1e-12)
        assert rep.t == pytest.approx(5.0 / 11.0, rel=1e-12)
        assert rep.d2_alpha_star == pytest.approx(6.0 / 11.0, rel=1e-12)
        assert rep.alpha_star == pytest.approx(11.0, rel=1e-12)
        beta = HAND.s * (HAND.m - HAND.k) / 2.0
        assert rep.log_p_d1 == pytest.approx(beta * (math.log(6.0) - 5.0), rel=1e-12)
        assert rep.log_p_d2 == pytest.approx(beta * (math.log(6.0 / 11.0) + 5.0 / 11.0), rel=1e-12)
        assert rep.log_binom == pytest.approx(math.log(45.0), rel=1e-12)
        expected = np.logaddexp(
            math.log(2.0) + rep.log_p_d1, rep.log_binom + rep.log_p_d2
        )
        assert rep.log_upper_perr == pytest.approx(float(expected), rel=1e-12)
        # the sum exceeds 1 at this point, so the probability clamps
        assert rep.log_upper_perr > 0.0
        assert rep.upper_perr == 1.0
        assert rep.lower_perr == 0.0

    def test_mu_identities(self):
        rng = np.random.default_rng(404)
        for _ in range(40):
            p = _random_params(rng)
            rep = upper_bound_perr(p)
            assert rep.log_p_d1 == pytest.approx(p.s * rep.log_mu_I, rel=1e-12)
            assert rep.log_p_d2 == pytest.approx(p.s * rep.log_mu_J, rel=1e-12)
            assert rep.mu_I == pytest.approx(math.exp(rep.log_mu_I), rel=1e-12)
            assert rep.mu_J == pytest.approx(math.exp(rep.log_mu_J), rel=1e-12)
            # exp() may underflow for harsh parameters; the log fields stay finite
            assert 0.0 <= rep.mu_I < 1.0
            assert 0.0 <= rep.mu_J < 1.0
            assert rep.log_mu_I < 0.0
            assert rep.log_mu_J < 0.0

    def test_canonical_gap_identity(self):
        # at the default slack the incorrect-support tilt equals 1 - t exactly
        rng = np.random.default_rng(405)
        for _ in range(40):
            p = _random_params(rng)
            rep = upper_bound_perr(p)
            assert rep.d2_alpha_star == pytest.approx(1.0 - rep.t, rel=1e-12)

    def test_vanishes_as_vectors_accumulate(self):
        logs = []
        for s in (1, 2, 4, 8, 16, 64):
            p = ProblemParams(n=16, k=2, m=8, s=s, sigma2=1.0, xmin2=4.0, rho=2.0)
            logs.append(upper_bound_perr(p).log_upper_perr)
        assert all(b < a for a, b in zip(logs, logs[1:]))
        assert logs[-1] < -15.0

    def test_sharpens_with_measurements(self):
        logs = [
            upper_bound_perr(
                ProblemParams(n=32, k=2, m=m, s=4, sigma2=1.0, xmin2=4.0, rho=2.0)
            ).log_upper_perr
            for m in (3, 6, 12, 24)
        ]
        assert all(b < a for a, b in zip(logs, logs[1:]))

    def test_inadmissible_slack(self):
        p = ProblemParams(
            n=10, k=2, m=8, s=4, sigma2=1.0, xmin2=10.0, rho=2.0, delta_override=7.5
        )
        with pytest.raises(DeltaAdmissibilityError, match=r"\(1 - K/M\)"):
            upper_bound_perr(p)

    def test_override_moves_d1(self):
        p = ProblemParams(
            n=10, k=2, m=8, s=4, sigma2=1.0, xmin2=10.0, rho=2.0, delta_override=1.5
        )
        rep = upper_bound_perr(p)
        assert rep.d1 == pytest.approx(8.0 * 1.5 / 6.0, rel=1e-12)
        # t depends only on rho and SNR, never on the active slack
        assert rep.t == pytest.approx(5.0 / 11.0, rel=1e-12)


class TestExpForm:
    def test_p1_log_approaches_zero_with_slack(self):
        vals = []
        for d in (1e-1, 1e-3, 1e-6):
            p = ProblemParams(
                n=10, k=2, m=8, s=4, sigma2=1.0, xmin2=10.0, rho=2.0, delta_override=d
            )
            lp1, _ = exp_ineq_bounds(p)
            vals.append(lp1)
        assert all(v < 0.0 for v in vals)
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > -1e-10

    def test_homogeneous_energies_collapse(self):
        p = HAND
        lp1, lp2 = exp_ineq_bounds(p)
        gap = 10.0 - p.m * p.delta / (p.m - p.k)
        direct = -(p.s * (p.m - p.k) / (4.0 * 11.0**2)) * gap**2
        assert lp2 == pytest.approx(direct, rel=1e-12)
        direct1 = -(p.s * p.delta**2 / 4.0) * p.m**2 / (p.m - p.k + 2.0 * p.delta * p.m)
        assert lp1 == pytest.approx(direct1, rel=1e-12)

    def test_dominates_chernoff_form(self):
        # the exponential forms are weaker, so their logs sit above
        # each draw also at S = 100 and 1,000, where S * alpha*^2 stands in
        # for a sum of S squares
        rng = np.random.default_rng(406)
        for _ in range(200):
            drawn = _random_params(rng)
            for p in (drawn, replace(drawn, s=100), replace(drawn, s=1000)):
                rep = upper_bound_perr(p)
                assert rep.log_p_d1 <= rep.log_p1_exp + 1e-12
                assert rep.log_p_d2 <= rep.log_p2_exp + 1e-12

    def test_input_validation(self):
        # the limit at HAND is (1 - K/M) * x_min^2 = 7.5
        for d in (0.0, 7.5, 100.0):
            with pytest.raises(DeltaAdmissibilityError):
                exp_ineq_bounds(replace(HAND, delta_override=d))


# rho=4, xmin2=2, sigma2=1 places t exactly at 1/2
T_HALF = ProblemParams(n=1024, k=16, m=64, s=4, sigma2=1.0, xmin2=2.0, rho=4.0)


class TestSufficientM:
    def test_t_half_reference(self):
        assert t_value(T_HALF) == pytest.approx(0.5, rel=1e-12)
        nu2 = -2.0 / (math.log(0.5) + 0.5)
        assert nu2 == pytest.approx(10.354797798248361, rel=1e-12)
        expected = 16.0 + nu2 * (16.0 / 4.0) * math.log(64.0)
        assert sufficient_M(T_HALF) == pytest.approx(expected, rel=1e-12)

    def test_linear_regime_uses_nu1(self):
        nu2 = -2.0 / (math.log(0.5) + 0.5)
        nu1 = nu2 * (1.0 - math.log(16.0 / 1024.0))
        expected = 16.0 + nu1 * 16.0 / 4.0
        assert sufficiency_report(T_HALF).M_suff_linear == pytest.approx(expected, rel=1e-12)

    def test_doubling_s_halves_additive_term(self):
        base = sufficient_M(T_HALF)
        doubled = sufficient_M(
            ProblemParams(n=1024, k=16, m=64, s=8, sigma2=1.0, xmin2=2.0, rho=4.0)
        )
        assert doubled - 16.0 == pytest.approx((base - 16.0) / 2.0, rel=1e-12)

    def test_exceeds_sparsity(self):
        rng = np.random.default_rng(407)
        for _ in range(50):
            p = _random_params(rng)
            assert sufficient_M(p) > p.k
            assert sufficiency_report(p).M_suff_linear > p.k

    def test_low_snr_blowup(self):
        # t -> 0 as SNR -> 0 so the sample requirement diverges
        vals = [
            sufficient_M(
                ProblemParams(n=64, k=4, m=32, s=2, sigma2=1.0 / snr, xmin2=1.0, rho=2.0)
            )
            for snr in (1.0, 1e-2, 1e-4)
        ]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e4


def _regimes(rep, corollary):
    """(linear, sublinear) pairs of a corollary's counts and the tight ones."""
    return (
        (getattr(rep, f"M_suff_{corollary}_linear"), rep.M_suff_linear),
        (getattr(rep, f"M_suff_{corollary}_sublinear"), rep.M_suff_sublinear),
    )


class TestCorollary1:
    def test_sixteen_over_s_at_t_half(self):
        rep = sufficiency_report(T_HALF)
        expected = 16.0 + (16.0 / 4.0) * 16.0 * math.log(64.0)
        assert rep.M_suff_cor1_sublinear == pytest.approx(expected, rel=1e-12)
        expected = 16.0 + (16.0 / 4.0) * 16.0 * (1.0 - math.log(16.0 / 1024.0))
        assert rep.M_suff_cor1_linear == pytest.approx(expected, rel=1e-12)

    def test_never_below_tight_form(self):
        rng = np.random.default_rng(408)
        for _ in range(100):
            for loose, tight in _regimes(sufficiency_report(_random_params(rng)), "cor1"):
                assert loose >= tight - 1e-9

    def test_high_snr_limit(self):
        # t -> 1 - 1/rho, so the factor tends to 4 / (S (1 - 1/rho)^2)
        p = ProblemParams(n=256, k=8, m=32, s=2, sigma2=1e-9, xmin2=1.0, rho=2.0)
        got = sufficiency_report(p).M_suff_cor1_sublinear
        limit = 8.0 + (4.0 / (2.0 * 0.25)) * 8.0 * math.log(32.0)
        assert got == pytest.approx(limit, rel=1e-6)


class TestCorollary2:
    # the report takes Corollary 2 at the midpoint alpha = (1 - 1/rho)/2

    def test_threshold_value(self):
        # alpha = 0.375 at rho = 4, and SNR_min = 2 backs it
        rep = sufficiency_report(T_HALF)
        assert rep.snr_threshold_cor2 == 1.0
        factor = (1.0 / 4.0 + 1.0 / 8.0) * (4.0 - 0.75) / (0.75 * 0.375)
        expected = 16.0 + factor * 16.0 * math.log(64.0)
        assert rep.M_suff_cor2_sublinear == pytest.approx(expected, rel=1e-12)
        expected = 16.0 + factor * 16.0 * (1.0 - math.log(16.0 / 1024.0))
        assert rep.M_suff_cor2_linear == pytest.approx(expected, rel=1e-12)

    def test_at_threshold_equality_is_allowed(self):
        p = ProblemParams(n=64, k=4, m=16, s=2, sigma2=1.0, xmin2=1.0, rho=2.0)
        assert p.snr_min == 1.0
        got = sufficiency_report(p).M_suff_cor2_sublinear
        factor = (1.0 / 2.0 + 1.0 / 2.0) * (4.0 - 0.5) / (0.5 * 0.25)
        assert got == pytest.approx(4.0 + factor * 4.0 * math.log(16.0), rel=1e-12)

    def test_below_threshold_rejected(self):
        rep = sufficiency_report(ProblemParams(n=64, k=4, m=16, s=2, sigma2=1.5, xmin2=1.0, rho=2.0))
        assert math.isnan(rep.M_suff_cor2_linear)
        assert math.isnan(rep.M_suff_cor2_sublinear)

    def test_threshold_is_one_on_a_grid(self):
        # (1 - 1/rho) - alpha is exact at the midpoint (Sterbenz), so the
        # threshold alpha / ((1 - 1/rho) - alpha) is 1.0 at every rho
        below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
        for rho in 1.0 + np.geomspace(1e-8, 1e3, 23):
            for snr in (1e-3, 0.5, below, 1.0, above, 2.0, 1e3):
                p = ProblemParams(n=64, k=4, m=16, s=3, sigma2=1.0, xmin2=snr, rho=float(rho))
                assert p.snr_min == snr
                rep = sufficiency_report(p)
                assert rep.snr_threshold_cor2 == 1.0
                for cell in (rep.M_suff_cor2_linear, rep.M_suff_cor2_sublinear):
                    assert math.isnan(cell) == (snr < 1.0)

    def test_never_below_tight_form(self):
        rng = np.random.default_rng(409)
        checked = 0
        while checked < 60:
            rep = sufficiency_report(_random_params(rng))
            if math.isnan(rep.M_suff_cor2_sublinear):
                continue
            for loose, tight in _regimes(rep, "cor2"):
                assert loose >= tight - 1e-9
            checked += 1


# the pinned bounds points of tools/output_digest.py, at x_min^2 and sigma^2
_PINNED_POINTS = {
    "bounds": ProblemParams(n=64, k=4, m=5, s=2, sigma2=1.0, xmin2=1.0),
    "bounds-vacuous-necessary": ProblemParams(n=2, k=1, m=2, s=1, sigma2=0.1, xmin2=1.0),
    "bounds-cor2-nan": ProblemParams(n=64, k=4, m=16, s=2, sigma2=2.0, xmin2=1.0),
    "bounds-s100": ProblemParams(n=6, k=1, m=2, s=100, sigma2=1e-4, xmin2=1.0, rho=1.2),
    "bounds-xmin2": ProblemParams(n=6, k=1, m=2, s=1, sigma2=0.37, xmin2=0.37, rho=7.0),
    "bounds-low-snr": ProblemParams(n=6, k=2, m=4, s=1, sigma2=1e4, xmin2=1.0),
}


def _dimensionless_cells(p):
    """Every report cell but sigma2, xmin2 and alpha_star, which carry units."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the vacuous necessary count
        rows = (
            (BOUND_REPORT_CSV_HEADER, upper_bound_perr(p).csv_row()),
            (SUFFICIENCY_CSV_HEADER, sufficiency_report(p).csv_row()),
        )
    return [
        (name, cell)
        for header, row in rows
        for name, cell in zip(header.split(","), row.split(","))
        if name not in ("sigma2", "xmin2", "alpha_star")
    ]


class TestScaleFree:
    @pytest.mark.parametrize("label", sorted(_PINNED_POINTS))
    def test_rescaling_by_a_power_of_two_moves_no_dimensionless_cell(self, label):
        # scaling x_min^2 and sigma^2 by 2^j is exact, and so is every ratio
        # of them the closed forms take, while both stay normal floats
        p = _PINNED_POINTS[label]
        expected = _dimensionless_cells(p)
        for j in range(-1000, 1001, 8):
            scaled = replace(p, sigma2=math.ldexp(p.sigma2, j), xmin2=math.ldexp(p.xmin2, j))
            assert _dimensionless_cells(scaled) == expected, j


class TestMuFactors:
    def test_matches_report(self):
        rng = np.random.default_rng(410)
        for _ in range(30):
            p = _random_params(rng)
            rep = upper_bound_perr(p)
            lmi, lmj = log_mu_factors(p)
            assert lmi == pytest.approx(rep.log_mu_I, rel=1e-12)
            assert lmj == pytest.approx(rep.log_mu_J, rel=1e-12)

    def test_high_snr_limit_at_minimal_m(self):
        p = ProblemParams(n=32, k=3, m=4, s=2, sigma2=1e-12, xmin2=1.0, rho=2.0)
        _, lmj = log_mu_factors(p)
        limit = 0.5 * (1.0 - 1.0 / 2.0 - math.log(2.0))
        assert lmj == pytest.approx(limit, rel=1e-5)


class TestCorollary3:
    P = ProblemParams(n=32, k=3, m=4, s=2, sigma2=0.05, xmin2=1.0, rho=2.0)

    def test_requires_minimal_m(self):
        bad = ProblemParams(n=32, k=3, m=6, s=2, sigma2=0.05, xmin2=1.0, rho=2.0)
        with pytest.raises(InvalidParameterError):
            corollary3_S_bound(bad, 0.01)

    def test_epsilon_range(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidRangeError):
                corollary3_S_bound(self.P, eps)
            with pytest.raises(InvalidRangeError):
                corollary3_S_bound_high_snr(self.P, eps)

    def test_shrinks_as_epsilon_grows(self):
        vals = [corollary3_S_bound(self.P, e) for e in (1e-4, 1e-2, 0.5, 0.999)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        c2 = math.comb(32, 3) + 2
        floor = math.log(c2) * 2.0 / abs(1.0 - 0.5 - math.log(2.0))
        # as epsilon -> 1 the log(1/epsilon) term dies but the union count stays
        assert vals[-1] > floor
        assert vals[-1] >= corollary3_S_bound_high_snr(self.P, 0.999)

    def test_decreasing_in_snr_down_to_limit(self):
        vals = []
        for sigma2 in (0.5, 0.05, 5e-4, 5e-8):
            p = ProblemParams(n=32, k=3, m=4, s=2, sigma2=sigma2, xmin2=1.0, rho=2.0)
            vals.append(corollary3_S_bound(p, 0.01))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        limit = corollary3_S_bound_high_snr(self.P, 0.01)
        assert vals[-1] == pytest.approx(limit, rel=1e-3)
        assert all(v >= limit - 1e-9 for v in vals)

    def test_explicit_value(self):
        p = self.P
        delta = 1.0 / (2.0 * 4.0)
        d1 = 4.0 * delta / (1.0 * 0.05)
        t = (1.0 - 0.5) / (1.0 + 0.05)
        lmi = 0.5 * (math.log1p(d1) - d1)
        lmj = 0.5 * (math.log1p(-t) + t)
        expected = (math.log(math.comb(32, 3) + 2.0) - math.log(0.01)) * max(
            1.0 / abs(lmi), 1.0 / abs(lmj)
        )
        assert corollary3_S_bound(p, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_ignores_delta_override(self):
        base = corollary3_S_bound(self.P, 0.01)
        for delta in (0.0, 0.05, math.inf):
            assert corollary3_S_bound(replace(self.P, delta_override=delta), 0.01) == base

    def test_combined_bound_below_epsilon_at_vector_count(self):
        # acceptance test_07 checks its 0.05 line at this vector count
        accept = ProblemParams(n=8, k=2, m=3, s=1, sigma2=0.01, xmin2=1.0, rho=2.0)
        for p in (self.P, accept):
            for eps in (0.01, 0.05):
                s_star = math.ceil(corollary3_S_bound(p, eps))
                at = ProblemParams(
                    n=p.n, k=p.k, m=p.m, s=s_star, sigma2=p.sigma2,
                    xmin2=p.xmin2, rho=p.rho,
                )
                assert upper_bound_perr(at).upper_perr <= eps


def _at(n=1024, k=16, m=32, s=4, snr=1.0):
    """A parameter point at SNR_min = snr (x_min^2 = 1)."""
    return ProblemParams(n=n, k=k, m=m, s=s, sigma2=1.0 / snr, xmin2=1.0, rho=2.0)


class TestNecessaryM:
    def test_frozen_value(self):
        assert necessary_M(_at()) == pytest.approx(11.620900750615736, rel=1e-9)

    def test_quarters_with_four_vectors(self):
        one = necessary_M(_at(s=1))
        four = necessary_M(_at(s=4))
        assert one == pytest.approx(4.0 * four, rel=1e-12)

    def test_vacuous_regime_warns(self):
        # 2 K log(N/K) = 2 log 2: the numerator is exactly zero
        with pytest.warns(RuntimeWarning):
            got = necessary_M(_at(n=2, k=1, m=2, s=1, snr=10.0))
        assert got == 0.0

    def test_params_wrapper(self):
        # only N, K, S and SNR_min enter: M, rho, the slack and the noise
        # scale at fixed SNR_min do not
        base = necessary_M(_at())
        p = ProblemParams(
            n=1024, k=16, m=100, s=4, sigma2=4.0, xmin2=4.0, rho=3.0, delta_override=0.1
        )
        assert necessary_M(p) == base

    def test_validation(self):
        # the points the formula cannot take are refused by ProblemParams
        with pytest.raises(InvalidParameterError):
            _at(n=4, k=4, m=4)
        with pytest.raises(InvalidParameterError):
            ProblemParams(n=8, k=2, m=4, s=1, sigma2=1.0, xmin2=0.0)
        with pytest.raises(InvalidParameterError):
            ProblemParams(n=8, k=2, m=4, s=1, sigma2=math.inf, xmin2=1.0)


class TestFano:
    def test_frozen_value(self):
        assert fano_lower_perr(_at(m=17, s=1)) == pytest.approx(0.6276725609309595, rel=1e-9)

    def test_zero_measurements_leave_log2_term(self):
        # as SNR_min -> 0 the measurements carry nothing and only log 2 is left
        got = fano_lower_perr(_at(m=17, snr=1e-12))
        assert got == pytest.approx(1.0 - math.log(2.0) / (16.0 * math.log(64.0)))

    def test_zero_exactly_at_necessary_count(self):
        # the floor vanishes at the first whole M past necessary_M and not before
        for n, k, s, snr in ((1024, 16, 1, 0.5), (4096, 8, 1, 0.5), (256, 4, 1, 1.0)):
            m_nec = necessary_M(_at(n=n, k=k, s=s, snr=snr))
            assert math.floor(m_nec) > k
            assert fano_lower_perr(_at(n=n, k=k, m=math.ceil(m_nec), s=s, snr=snr)) == 0.0
            assert fano_lower_perr(_at(n=n, k=k, m=math.floor(m_nec), s=s, snr=snr)) > 0.0

    def test_clamps_above_necessary_count(self):
        assert fano_lower_perr(_at(m=200)) == 0.0

    def test_monotone_in_m_s_snr(self):
        base = fano_lower_perr(_at(m=17, s=1))
        assert fano_lower_perr(_at(m=20, s=1)) < base
        assert fano_lower_perr(_at(m=17, s=2)) < base
        assert fano_lower_perr(_at(m=17, s=1, snr=1.5)) < base
        assert fano_lower_perr(_at(n=4096, m=17, s=1)) > base

    def test_params_wrapper(self):
        p = ProblemParams(n=1024, k=4, m=6, s=4, sigma2=1.0, xmin2=1.0, rho=2.0)
        expected = 1.0 - (0.5 * 4 * 6 * math.log(5.0) + math.log(2.0)) / (4 * math.log(256.0))
        assert fano_lower_perr(p) == pytest.approx(expected, rel=1e-12)
        assert upper_bound_perr(p).lower_perr == fano_lower_perr(p)


class TestMmvComparison:
    def test_fields(self):
        p = ProblemParams(n=256, k=4, m=16, s=8, sigma2=1.0, xmin2=1.0, rho=2.0)
        rep = mmv_order_comparison(p)
        assert rep.mmv_low_noise == pytest.approx(4.0 * math.log(256.0) / 4.0)
        assert rep.jsm2 == pytest.approx(sufficient_M(p))
        assert rep.ratio == pytest.approx(rep.mmv_low_noise / rep.jsm2)

    def test_gain_grows_with_vectors(self):
        ratios = []
        for s in (1, 4, 16, 64):
            p = ProblemParams(n=256, k=4, m=16, s=s, sigma2=1.0, xmin2=1.0, rho=2.0)
            ratios.append(mmv_order_comparison(p).ratio)
        # the per-vector requirement keeps falling toward K while the shared
        # baseline bottoms out at log N, so the advantage ratio grows
        assert ratios[-1] > ratios[0]


class TestSufficiencyReport:
    def test_internal_consistency(self):
        rep = sufficiency_report(T_HALF)
        assert rep.nu1 == pytest.approx(rep.nu2 * (1.0 - math.log(16.0 / 1024.0)), rel=1e-12)
        assert rep.M_suff_sublinear == sufficient_M(T_HALF)
        assert rep.M_suff_linear == pytest.approx(16.0 + rep.nu1 * 16.0 / 4.0, rel=1e-12)
        assert rep.M_necessary == pytest.approx(necessary_M(T_HALF), rel=1e-12)
        assert rep.S_cor3 > 0.0

    def test_cor2_nan_below_threshold(self):
        p = ProblemParams(n=64, k=4, m=16, s=2, sigma2=25.0, xmin2=1.0, rho=2.0)
        rep = sufficiency_report(p)
        assert p.snr_min < rep.snr_threshold_cor2
        assert math.isnan(rep.M_suff_cor2_linear)
        assert math.isnan(rep.M_suff_cor2_sublinear)

    def test_s_cor3_ignores_params_m(self):
        a = sufficiency_report(
            ProblemParams(n=64, k=4, m=16, s=2, sigma2=0.25, xmin2=1.0, rho=2.0)
        )
        b = sufficiency_report(
            ProblemParams(n=64, k=4, m=32, s=2, sigma2=0.25, xmin2=1.0, rho=2.0)
        )
        assert a.S_cor3 == pytest.approx(b.S_cor3, rel=1e-12)


class TestCsvRows:
    def test_bound_report_shape(self):
        header_cols = BOUND_REPORT_CSV_HEADER.split(",")
        rng = np.random.default_rng(411)
        for _ in range(20):
            p = _random_params(rng)
            row = upper_bound_perr(p).csv_row()
            cells = row.split(",")
            assert len(cells) == len(header_cols)
            for cell in cells:
                float(cell)  # every column is numeric

    def test_bound_report_hand_columns(self):
        row = dict(zip(BOUND_REPORT_CSV_HEADER.split(","), upper_bound_perr(HAND).csv_row().split(",")))
        assert float(row["n"]) == 10
        assert float(row["d1"]) == pytest.approx(5.0)
        assert float(row["t"]) == pytest.approx(5.0 / 11.0)
        assert float(row["upper_clamped"]) == 1.0
        assert float(row["lower"]) == 0.0

    def test_sufficiency_report_shape(self):
        header_cols = SUFFICIENCY_CSV_HEADER.split(",")
        row = sufficiency_report(T_HALF).csv_row()
        cells = row.split(",")
        assert len(cells) == len(header_cols)
        parsed = dict(zip(header_cols, (float(c) for c in cells)))
        assert parsed["nu2"] == pytest.approx(10.354797798248361)
        assert parsed["m_necessary"] == pytest.approx(necessary_M(T_HALF))


class TestLogBinom:
    def test_small_values_exact(self):
        assert log_binom(10, 2) == pytest.approx(math.log(45.0), rel=1e-12)
        assert log_binom(5, 0) == 0.0
        assert log_binom(5, 5) == 0.0

    def test_large_values_stable(self):
        assert log_binom(10_000, 500) == pytest.approx(
            math.lgamma(10_001) - math.lgamma(501) - math.lgamma(9_501), rel=1e-12
        )

    def test_numpy_integers_give_the_same_bits(self):
        assert log_binom(np.int64(64), np.int32(4)) == log_binom(64, 4)
        assert type(log_binom(np.int64(64), np.uint8(4))) is float

    @pytest.mark.parametrize("n, k", [(10.0, 2), (10, 2.0), (10.5, 2), ("10", 2), (None, 0)])
    def test_refuses_a_non_integer(self, n, k):
        with pytest.raises(InvalidRangeError, match="integers"):
            log_binom(n, k)
