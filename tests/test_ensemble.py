import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from jsm2lab.ensemble import (
    AMPLITUDE_UNIFORM,
    MeasurementEnsemble,
    ProblemParams,
    SensingEnsemble,
    SupportSet,
    measure,
    sample_sensing,
    sample_sparse_ensemble,
    sample_support,
)
from jsm2lab.errors import (
    InvalidDimensionError,
    InvalidParameterError,
    InvalidRangeError,
)


class TestSupportSet:
    def test_valid_construction(self):
        s = SupportSet((0, 3, 5), 8)
        assert s.size == 3
        assert s.indices == (0, 3, 5)
        assert s.as_array().tolist() == [0, 3, 5]

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidParameterError):
            SupportSet((3, 0), 8)

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidParameterError):
            SupportSet((2, 2), 8)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidRangeError):
            SupportSet((0, 8), 8)

    def test_rejects_empty(self):
        with pytest.raises(InvalidDimensionError):
            SupportSet((), 8)

    @pytest.mark.parametrize(
        "indices, ambient_dim",
        [((0, 2.7), 5), ((0, math.nan), 5), ((0, math.inf), 5), (("0", 2), 5),
         ((0, 2), 5.5), ((0, 2), math.inf), ((0, 2), math.nan)],
    )
    def test_rejects_non_whole_input(self, indices, ambient_dim):
        with pytest.raises(InvalidParameterError, match="whole"):
            SupportSet(indices, ambient_dim)

    def test_whole_floats_become_ints(self):
        s = SupportSet((0.0, np.int64(2)), 5.0)
        assert s == SupportSet((0, 2), 5)
        assert all(type(i) is int for i in (*s.indices, s.ambient_dim))


class TestSampleSupport:
    def test_full_support_is_everything(self):
        assert sample_support(4, 4, 0).indices == (0, 1, 2, 3)

    def test_singleton(self):
        assert sample_support(1, 1, 99).indices == (0,)

    def test_k_gt_n_rejected(self):
        with pytest.raises(InvalidDimensionError):
            sample_support(3, 4, 0)

    def test_deterministic_per_seed(self):
        assert sample_support(16, 3, 42) == sample_support(16, 3, 42)

    def test_uniform_over_subsets(self):
        # chi-square goodness of fit over all C(16,2) = 120 cells
        draws = 100_000
        rng = np.random.default_rng(2024)
        index = {sup: i for i, sup in enumerate(itertools.combinations(range(16), 2))}
        counts = np.zeros(len(index))
        for _ in range(draws):
            counts[index[sample_support(16, 2, rng).indices]] += 1
        stat, pvalue = chisquare(counts)
        assert pvalue > 1e-4, f"support draw non-uniform: chi2={stat}, p={pvalue}"


class TestSparseEnsemble:
    def test_fixed_mode_single_entry(self):
        sup = SupportSet((2,), 5)
        x = sample_sparse_ensemble(sup, 1, 1.0, seed=3)
        assert abs(x[0, 2]) == 1.0
        off = np.delete(x[0], 2)
        assert not off.any()

    def test_realized_min_at_least_x_min(self):
        sup = sample_support(12, 3, 7)
        x = sample_sparse_ensemble(sup, 4, 1.5, AMPLITUDE_UNIFORM, x_max=4.0, seed=8)
        mags = np.abs(x[:, sup.as_array()])
        assert mags.min() >= 1.5

    def test_uniform_requires_x_max(self):
        sup = SupportSet((0, 1), 4)
        with pytest.raises(InvalidRangeError):
            sample_sparse_ensemble(sup, 2, 1.0, AMPLITUDE_UNIFORM, seed=1)

    def test_uniform_rejects_x_max_below_x_min(self):
        sup = SupportSet((0, 1), 4)
        with pytest.raises(InvalidRangeError):
            sample_sparse_ensemble(sup, 2, 2.0, AMPLITUDE_UNIFORM, x_max=1.0, seed=1)

    @pytest.mark.parametrize("x_max", [math.nan, math.inf])
    def test_uniform_rejects_a_non_finite_x_max(self, x_max):
        # numpy's own OverflowError used to escape here
        sup = SupportSet((0, 1), 4)
        with pytest.raises(InvalidRangeError):
            sample_sparse_ensemble(sup, 2, 1.0, AMPLITUDE_UNIFORM, x_max=x_max, seed=1)

    def test_bad_amplitude_mode(self):
        sup = SupportSet((0,), 4)
        with pytest.raises(InvalidParameterError):
            sample_sparse_ensemble(sup, 1, 1.0, "gaussian", seed=1)

    def test_vectors_are_read_only(self):
        sup = SupportSet((1,), 4)
        x = sample_sparse_ensemble(sup, 2, 1.0, seed=5)
        with pytest.raises(ValueError):
            x[0, 1] = 9.0


class TestSampleSensing:
    def test_shapes_and_distinctness(self):
        f = sample_sensing(2, 3, 2, 17)
        assert f.matrices.shape == (2, 2, 3)
        assert not np.array_equal(f.matrices[0], f.matrices[1])

    def test_entry_moments(self):
        f = sample_sensing(100, 100, 100, 31)
        entries = f.matrices.ravel()
        n = entries.size
        assert abs(entries.mean()) < 4.0 / math.sqrt(n)
        assert abs(entries.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)

    def test_bad_dims(self):
        with pytest.raises(InvalidDimensionError):
            sample_sensing(0, 3, 1, 0)


class TestMeasure:
    def test_noiseless_zero_signal(self):
        f = sample_sensing(3, 4, 1, 1)
        y = measure(np.zeros((1, 4)), f, 0.0, 2)
        assert np.array_equal(y.measurements, np.zeros((1, 3)))

    def test_noiseless_is_support_restricted_product(self):
        sup = sample_support(8, 2, 5)
        x = sample_sparse_ensemble(sup, 3, 2.0, seed=6)
        f = sample_sensing(5, 8, 3, 7)
        y = measure(x, f, 0.0, 8)
        cols = sup.as_array()
        for s in range(3):
            ref = f.matrices[s][:, cols] @ x[s, cols]
            assert np.allclose(y.measurements[s], ref, atol=1e-12)

    def test_noise_variance_empirical(self):
        zero = np.zeros((1, 4))
        f = sample_sensing(100, 4, 1, 9)
        samples = []
        for trial in range(1000):
            y = measure(zero, f, 4.0, 1000 + trial)
            samples.append(y.measurements.ravel())
        flat = np.concatenate(samples)
        n = flat.size
        assert abs(flat.var() - 4.0) < 5.0 * 4.0 * math.sqrt(2.0 / n)

    def test_shape_mismatch(self):
        sup = SupportSet((0,), 4)
        x = sample_sparse_ensemble(sup, 2, 1.0, seed=1)
        f = sample_sensing(3, 5, 2, 2)
        with pytest.raises(InvalidDimensionError):
            measure(x, f, 1.0, 3)
        # an (S, N+1) signal against (S, M, N) matrices
        with pytest.raises(InvalidDimensionError, match=r"signals \(2, 6\)"):
            measure(np.ones((2, 6)), f, 1.0, 3)

    def test_nested_list_signal(self):
        f = sample_sensing(3, 4, 2, 2)
        rows = [[1.0, 0, 0, -2.0], [0, 0.5, 0, 0]]
        y = measure(rows, f, 0.0, 3)
        assert np.array_equal(y.measurements, measure(np.array(rows), f, 0.0, 3).measurements)

    def test_negative_noise_var(self):
        sup = SupportSet((0,), 4)
        x = sample_sparse_ensemble(sup, 1, 1.0, seed=1)
        f = sample_sensing(3, 4, 1, 2)
        with pytest.raises(InvalidRangeError):
            measure(x, f, -1.0, 3)

    def test_deterministic_per_seed(self):
        sup = sample_support(6, 2, 1)
        x = sample_sparse_ensemble(sup, 2, 1.0, seed=2)
        f = sample_sensing(4, 6, 2, 3)
        a = measure(x, f, 0.5, 44)
        b = measure(x, f, 0.5, 44)
        assert np.array_equal(a.measurements, b.measurements)


class TestProblemParams:
    def test_snr_and_delta_defaults(self):
        p = ProblemParams(n=10, k=2, m=8, s=4, sigma2=1.0, xmin2=10.0, rho=2.0)
        assert p.snr_min == pytest.approx(10.0)
        assert p.delta == pytest.approx(3.75)
        assert p.x_min == pytest.approx(math.sqrt(10.0))

    def test_delta_override_wins(self):
        p = ProblemParams(
            n=10, k=2, m=8, s=4, sigma2=1.0, xmin2=10.0, rho=2.0, delta_override=0.5
        )
        assert p.delta == 0.5

    def test_k_must_be_below_m(self):
        with pytest.raises(InvalidParameterError, match="K < M"):
            ProblemParams(n=8, k=5, m=5, s=1, sigma2=1.0, xmin2=1.0)

    def test_m_must_fit_in_n(self):
        with pytest.raises(InvalidParameterError):
            ProblemParams(n=4, k=2, m=5, s=1, sigma2=1.0, xmin2=1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5, 0])
    def test_dimensions_must_be_positive_integers(self, bad):
        with pytest.raises(InvalidParameterError):
            ProblemParams(n=bad, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0)

    def test_sigma2_positive(self):
        with pytest.raises(InvalidParameterError):
            ProblemParams(n=8, k=2, m=4, s=1, sigma2=0.0, xmin2=1.0)

    def test_rho_above_one(self):
        with pytest.raises(InvalidParameterError):
            ProblemParams(n=8, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0, rho=1.0)


class TestNonFiniteInput:
    # NaN or inf must be refused where it enters, not decoded into a failure

    # rho = inf would make the default slack 0, so nothing is ever typical
    @pytest.mark.parametrize("field", ["sigma2", "xmin2", "rho"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_params_require_finite_noise_and_signal_levels(self, field, bad):
        kw = dict(n=8, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0)
        kw[field] = bad
        with pytest.raises(InvalidParameterError):
            ProblemParams(**kw)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_sensing_matrices_must_be_finite(self, bad):
        mats = sample_sensing(3, 4, 2, 1).matrices.copy()
        mats[1, 2, 3] = bad
        with pytest.raises(InvalidParameterError):
            SensingEnsemble(mats)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_measurements_must_be_finite(self, bad):
        y = np.zeros((2, 3))
        y[0, 1] = bad
        with pytest.raises(InvalidParameterError):
            MeasurementEnsemble(y)

    def test_signal_vectors_must_be_finite(self):
        f = sample_sensing(3, 3, 1, 2)
        for bad in (math.inf, -math.inf, math.nan):
            for noise_var in (0.0, 1.0):
                with pytest.raises(InvalidParameterError):
                    measure([[bad, 0.0, 0.0]], f, noise_var, 3)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_measure_rejects_non_finite_noise_var(self, bad):
        sup = SupportSet((0,), 4)
        x = sample_sparse_ensemble(sup, 1, 1.0, seed=1)
        f = sample_sensing(3, 4, 1, 2)
        with pytest.raises(InvalidRangeError):
            measure(x, f, bad, 3)
