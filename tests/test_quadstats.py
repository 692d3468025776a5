import math

import numpy as np
import pytest

import jsm2lab.quadstats
from jsm2lab.decoder import typicality_stat
from jsm2lab.ensemble import (
    ProblemParams,
    SupportSet,
    measure,
    sample_sensing,
    sample_sparse_ensemble,
    sample_support,
)
from jsm2lab.errors import DomainError, InvalidRangeError
from jsm2lab.quadstats import (
    QuadFormSpec,
    TailCheckResult,
    laurent_massart_check,
    quadform_mgf,
    sample_quadform,
    sample_z_correct,
    sample_z_incorrect,
)


class TestQuadFormSpec:
    def test_moments_from_eigenvalues(self):
        spec = QuadFormSpec((1.0, 2.0, 3.0))
        assert spec.mean == 6.0
        assert spec.variance == 2.0 * (1.0 + 4.0 + 9.0)

    def test_from_alpha_repeats_each_energy(self):
        spec = QuadFormSpec.from_alpha([1.5, 0.5], m=5, k=2)
        assert spec.eigenvalues == (1.5, 1.5, 1.5, 0.5, 0.5, 0.5)
        assert spec.mean == 3.0 * 2.0
        assert spec.variance == 2.0 * 3.0 * (1.5**2 + 0.5**2)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidRangeError):
            QuadFormSpec(())
        with pytest.raises(InvalidRangeError):
            QuadFormSpec((1.0, 0.0))
        with pytest.raises(InvalidRangeError):
            QuadFormSpec.from_alpha([1.0], m=2, k=2)


class TestMgf:
    def test_unity_at_zero(self):
        assert quadform_mgf(QuadFormSpec((1.0, 2.0)), 0.0) == 1.0

    def test_homogeneous_closed_form(self):
        # D unit eigenvalues at t = 0.1: (1 - 0.2)^(-D/2)
        spec = QuadFormSpec((1.0,) * 6)
        assert quadform_mgf(spec, 0.1) == pytest.approx(0.8**-3.0, rel=1e-12)

    def test_negative_t_allowed(self):
        spec = QuadFormSpec((2.0, 1.0))
        expected = (1.0 + 4.0) ** -0.5 * (1.0 + 2.0) ** -0.5
        assert quadform_mgf(spec, -1.0) == pytest.approx(expected, rel=1e-12)

    def test_singularity_rejected(self):
        spec = QuadFormSpec((2.0, 1.0))
        with pytest.raises(DomainError):
            quadform_mgf(spec, 0.25)  # t = 1/(2 max lam)
        with pytest.raises(DomainError):
            quadform_mgf(spec, 0.3)

    def test_empirical_agreement(self):
        spec = QuadFormSpec.from_alpha([1.0, 0.5], m=4, k=1)
        draws = sample_quadform(spec, 200_000, seed=915)
        t = 0.15
        emp = float(np.mean(np.exp(t * draws)))
        assert emp == pytest.approx(quadform_mgf(spec, t), rel=0.02)


def _moments(alpha_list, m, k):
    spec = QuadFormSpec.from_alpha(alpha_list, m, k)
    return spec.mean, spec.variance


class TestMoments:
    def test_correct_support_pair(self):
        # chi-square with S(M-K) degrees of freedom
        assert _moments([1.0] * 3, 6, 2) == (12.0, 24.0)
        assert _moments([1.0] * 2, 5, 1) == (8.0, 16.0)

    def test_incorrect_support_pair(self):
        mean, var = _moments([2.0, 1.0], 6, 2)
        assert mean == pytest.approx(4.0 * 3.0)
        assert var == pytest.approx(2.0 * 4.0 * 5.0)

    def test_homogeneous_energies_reduce_to_correct_case(self):
        sigma2 = 0.7
        mean_j, var_j = _moments([sigma2] * 3, 6, 2)
        mean_i, var_i = _moments([1.0] * 3, 6, 2)
        assert mean_j == pytest.approx(sigma2 * mean_i)
        assert var_j == pytest.approx(sigma2**2 * var_i)


def _within(draws, mean, var):
    n = draws.size
    se_mean = math.sqrt(var / n)
    ok_mean = abs(float(np.mean(draws)) - mean) < 5.0 * se_mean
    # moment-based standard error for the sample variance
    m4 = float(np.mean((draws - np.mean(draws)) ** 4))
    se_var = math.sqrt(max(m4 - var**2, 0.0) / n)
    ok_var = abs(float(np.var(draws)) - var) < 5.0 * se_var
    return ok_mean, ok_var


class TestSamplers:
    def test_z_correct_moments(self):
        draws = sample_z_correct(6, 2, 3, trials=20_000, seed=916)
        ok_mean, ok_var = _within(draws, 12.0, 24.0)
        assert ok_mean and ok_var

    def test_z_correct_scales_with_noise(self):
        # the sampler reports the statistic in units of sigma^2: at noise
        # floor 5 the same draws give five times the residual energy
        a = sample_z_correct(6, 2, 2, trials=2_000, seed=917)
        b = sample_z_incorrect([5.0, 5.0], 6, 2, trials=2_000, seed=917)
        np.testing.assert_allclose(b, 5.0 * a, rtol=1e-9)

    def test_z_incorrect_moments(self):
        alphas = [2.0, 1.0, 0.5]
        draws = sample_z_incorrect(alphas, 8, 2, trials=20_000, seed=918)
        mean, var = _moments(alphas, 8, 2)
        ok_mean, ok_var = _within(draws, mean, var)
        assert ok_mean and ok_var

    def test_positive_skew(self):
        draws = sample_z_correct(4, 1, 1, trials=20_000, seed=919)
        centered = draws - np.mean(draws)
        assert float(np.mean(centered**3)) > 0.0

    def test_need_at_least_one_vector(self):
        # S = 0 would divide by zero in the chunk size
        with pytest.raises(InvalidRangeError):
            QuadFormSpec.from_alpha([], 6, 2)
        with pytest.raises(InvalidRangeError):
            sample_z_correct(6, 2, 0, trials=8, seed=1)
        with pytest.raises(InvalidRangeError):
            sample_z_incorrect([], 6, 2, trials=8, seed=1)

    def test_z_incorrect_without_columns(self):
        # K = 0 projects nothing away: each energy keeps all M coordinates
        alphas = [1.0, 2.0]
        assert sample_z_incorrect(alphas, 4, 0, trials=5, seed=1).shape == (5,)
        draws = sample_z_incorrect(alphas, 4, 0, trials=20_000, seed=923)
        ok_mean, ok_var = _within(draws, *_moments(alphas, 4, 0))
        assert ok_mean and ok_var

    def test_deterministic_in_seed(self):
        a = sample_z_incorrect([1.0, 2.0], 5, 1, trials=64, seed=920)
        b = sample_z_incorrect([1.0, 2.0], 5, 1, trials=64, seed=920)
        assert np.array_equal(a, b)

    def test_quadform_sampler_moments(self):
        spec = QuadFormSpec((3.0, 1.0, 1.0))
        draws = sample_quadform(spec, 20_000, seed=921)
        ok_mean, ok_var = _within(draws, spec.mean, spec.variance)
        assert ok_mean and ok_var

    @pytest.mark.parametrize("chunk", [1 << 12, 1 << 22])
    def test_quadform_sampler_draws_do_not_depend_on_the_chunk(self, chunk, monkeypatch):
        # Rows of normals come off the stream in order however they are cut,
        # and einsum sums each row on its own, equal weights or not.
        equal = QuadFormSpec.from_alpha([1.0] * 3, m=6, k=2)  # verify's form
        unequal = QuadFormSpec.from_alpha([1.0, 2.5, 0.5], m=7, k=2)
        for spec in (equal, unequal):
            default = sample_quadform(spec, 30_000, seed=926)
            with monkeypatch.context() as patch:
                patch.setattr(jsm2lab.quadstats, "_SAMPLE_CHUNK", chunk)
                assert np.array_equal(sample_quadform(spec, 30_000, seed=926), default)


class TestTailCheck:
    def test_deep_tail_homogeneous(self):
        res = laurent_massart_check([1.0] * 10, x=20.0, trials=5_000, seed=922)
        assert res.passed
        assert res.upper_rate == 0.0
        assert res.lower_rate == 0.0

    def test_moderate_tail(self):
        res = laurent_massart_check([1.0] * 5, x=1.0, trials=50_000, seed=923)
        assert res.passed
        assert res.bound == pytest.approx(math.exp(-1.0))
        assert res.upper_rate <= res.bound + res.allowance
        assert res.allowance > 0.0

    def test_heterogeneous_weights(self):
        res = laurent_massart_check([3.0, 1.0, 0.25, 0.25], x=2.0, trials=50_000, seed=924)
        assert res.passed

    def test_zero_weights_tolerated(self):
        # a zero weight adds nothing to Y, so it draws nothing either
        res = laurent_massart_check([1.0, 0.0, 0.0], x=1.0, trials=2_000, seed=925)
        assert isinstance(res, TailCheckResult)
        assert res.passed
        assert res == laurent_massart_check([1.0], x=1.0, trials=2_000, seed=925)

    def test_validation(self):
        with pytest.raises(InvalidRangeError):
            laurent_massart_check([1.0], x=1.0, trials=999, seed=0)
        with pytest.raises(InvalidRangeError):
            laurent_massart_check([1.0], x=0.0, trials=2_000, seed=0)
        with pytest.raises(InvalidRangeError):
            laurent_massart_check([-1.0, 2.0], x=1.0, trials=2_000, seed=0)
        with pytest.raises(InvalidRangeError):
            laurent_massart_check([0.0, 0.0], x=1.0, trials=2_000, seed=0)


class TestPipelineCrossCheck:
    def test_decoder_statistic_matches_predicted_moments(self):
        # end-to-end: the statistic produced by the decoder path on a fixed
        # signal and a wrong support is a weighted chi-square whose weights
        # are noise floor plus per-vector missed energy
        n, k, m, s, sigma2 = 8, 2, 6, 3, 0.5
        sup = sample_support(n, k, 301)
        x = sample_sparse_ensemble(sup, s, 1.5, seed=302)
        outside = next(i for i in range(n) if i not in sup.indices)
        wrong = SupportSet(tuple(sorted((sup.indices[0], outside))), n)
        missed_idx = [i for i in sup.indices if i not in wrong.indices]
        alphas = [
            float(np.sum(x[si, missed_idx] ** 2)) + sigma2 for si in range(s)
        ]
        p = ProblemParams(n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=1.0, rho=2.0)
        trials = 4_000
        vals = np.empty(trials)
        for i in range(trials):
            f = sample_sensing(m, n, s, 10_000 + i)
            y = measure(x, f, sigma2, 50_000 + i)
            vals[i] = typicality_stat(wrong, y, f, p).value
        mean, var = _moments(alphas, m, k)
        se_mean = math.sqrt(var / trials)
        assert abs(float(np.mean(vals)) - mean) < 5.0 * se_mean
        assert float(np.var(vals)) == pytest.approx(var, rel=0.15)
