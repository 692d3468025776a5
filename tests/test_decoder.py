import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from jsm2lab import decoder
from jsm2lab.decoder import decode, decode_trials, projection_residual, typicality_stat
from jsm2lab.ensemble import (
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
    EnumerationBudgetError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidRangeError,
    RankDeficientError,
)
from oracles import (
    brute_force_decode,
    brute_force_stats,
    dense_projection_residual,
)


class TestProjectionResidual:
    def test_standard_basis_column(self):
        f = np.array([[1.0], [0.0], [0.0]])
        y = np.array([2.0, 3.0, 4.0])
        assert projection_residual(f, y) == pytest.approx(9.0 + 16.0)

    def test_square_invertible_gives_zero(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((4, 4))
        y = rng.standard_normal(4)
        assert projection_residual(f, y) == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            k = int(rng.integers(1, m + 1))
            f = rng.standard_normal((m, k))
            y = rng.standard_normal(m)
            ref = dense_projection_residual(f, y)
            val = projection_residual(f, y)
            assert val == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_rank_deficient_rejected(self):
        col = np.arange(1.0, 5.0)
        f = np.column_stack([col, 2.0 * col])
        with pytest.raises(RankDeficientError):
            projection_residual(f, np.ones(4))

    def test_wide_block_rejected(self):
        with pytest.raises(RankDeficientError):
            projection_residual(np.ones((2, 3)), np.ones(2))

    def test_empty_block_leaves_y(self):
        # an (m, 0) block spans nothing and has full column rank 0
        assert projection_residual(np.zeros((3, 0)), np.ones(3)) == 3.0
        resid, rank_ok = decoder.residual_energies(np.zeros((2, 3, 0)), np.full((2, 3), 2.0))
        assert resid.tolist() == [12.0, 12.0] and rank_ok.all()

    def test_idempotent(self):
        # projecting the projected residual changes nothing: the residual of
        # y already orthogonal to the span equals ||y||^2 minus nothing new
        rng = np.random.default_rng(23)
        f = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        basis, _ = np.linalg.qr(f)
        resid_vec = y - basis @ (basis.T @ y)
        once = projection_residual(f, y)
        again = projection_residual(f, resid_vec)
        assert again == pytest.approx(once, rel=1e-10)


class TestResidualStack:
    def test_each_block_scores_as_it_does_alone(self):
        # a block's bits must not depend on the stack it is scored in
        rng = np.random.default_rng(29)
        blocks = rng.standard_normal((3, 1001, 6, 2))
        flat = blocks.reshape(-1, 6, 2)
        for i in (6, 7, 63, 64, 3002):
            flat[i, :, 1] = flat[i, :, 0]
        ys = rng.standard_normal((3, 1001, 6))
        resid, rank_ok = decoder.residual_energies(blocks, ys)
        assert np.flatnonzero(~rank_ok).tolist() == [6, 7, 63, 64, 3002]
        alone = [decoder.residual_energies(b, y) for b, y in zip(flat, ys.reshape(-1, 6))]
        assert resid.ravel().tobytes() == np.array([r for r, _ in alone]).tobytes()
        assert rank_ok.ravel().tolist() == [bool(ok) for _, ok in alone]


def _instance(n, k, m, s, sigma2, xmin2, seeds=(1, 2, 3, 4), rho=2.0, **kw):
    sup = sample_support(n, k, seeds[0])
    x = sample_sparse_ensemble(sup, s, math.sqrt(xmin2), seed=seeds[1])
    f = sample_sensing(m, n, s, seeds[2])
    y = measure(x, f, sigma2, seeds[3])
    p = ProblemParams(n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=xmin2, rho=rho, **kw)
    return sup, x, f, y, p


class TestTypicalityStat:
    def test_noiseless_true_support_value_zero(self):
        sup, x, f, _, p = _instance(8, 2, 5, 3, 1.0, 4.0)
        y0 = measure(x, f, 0.0, 9)
        st = typicality_stat(sup, y0, f, p)
        assert st.value == pytest.approx(0.0, abs=1e-18)
        # the window is centered on S(M-K) params.sigma2 whatever noise made
        # the data, so a noiseless value sits exactly that far below it
        assert st.centered == pytest.approx(-3 * (5 - 2) * 1.0, abs=1e-12)
        assert st.threshold == pytest.approx(3 * 5 * p.delta)  # 18
        assert st.typical

    def test_matches_dense_oracle(self):
        sup, x, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0, seeds=(5, 6, 7, 8))
        rows = brute_force_stats(y.measurements, f.matrices, p.sigma2, 2, p.delta)
        ref = dict((tuple(r[0]), r) for r in rows)
        for j in itertools.combinations(range(6), 2):
            st = typicality_stat(SupportSet(j, 6), y, f, p)
            assert st.value == pytest.approx(ref[j][1], rel=1e-9)
            assert st.typical == ref[j][3]

    def test_rank_deficiency_blocks_typicality(self):
        sup, x, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0)
        mats = f.matrices.copy()
        mats[0][:, 1] = 2.0 * mats[0][:, 0]  # duplicate direction inside J = {0, 1}
        f_bad = SensingEnsemble(mats)
        y_bad = measure(x, f_bad, 1.0, 10)
        wide = replace(p, delta_override=math.inf)
        st = typicality_stat(SupportSet((0, 1), 6), y_bad, f_bad, wide)
        assert not st.rank_ok
        assert not st.typical

    def test_delta_must_be_nonnegative(self):
        sup, _, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0)
        # the slack is params.delta, so ProblemParams refuses a bad override
        for bad in (math.nan, -0.5):
            with pytest.raises(InvalidRangeError):
                replace(p, delta_override=bad)
        # a zero-width window admits nothing, as in decode
        assert not typicality_stat(sup, y, f, replace(p, delta_override=0.0)).typical

    def test_candidate_must_be_smaller_than_m(self):
        # K < M holds for params, so a size-M candidate cannot match params.k
        f = sample_sensing(4, 6, 2, 31)
        y = MeasurementEnsemble(np.ones((2, 4)))
        p = ProblemParams(n=6, k=2, m=4, s=2, sigma2=1.0, xmin2=1.0)
        with pytest.raises(InvalidDimensionError):
            typicality_stat(SupportSet((0, 1, 2, 3), 6), y, f, p)
        with pytest.raises(InvalidDimensionError):
            typicality_stat(SupportSet((0, 1), 7), y, f, p)

    def test_same_verdict_as_decode_when_sigma2_differs_from_the_data(self):
        # data drawn at sigma2 = 0.1; both functions center on params.sigma2
        sup, x, f, y, _ = _instance(8, 2, 5, 3, 0.1, 1.0, seeds=(41, 42, 43, 44))
        verdicts = []
        for sigma2 in (0.1, 5.0):
            p = ProblemParams(n=8, k=2, m=5, s=3, sigma2=sigma2, xmin2=1.0)
            st = typicality_stat(sup, y, f, p)
            out = decode(y, f, p, true_support=sup)
            assert st.centered == pytest.approx(st.value - 3 * (5 - 2) * sigma2)
            verdicts.append(st.typical)
            assert st.typical == out.correct_typical
        # the center 45 at sigma2 = 5 lies far above the value 0.18, outside the
        # half-width 3*5*delta = 4.5
        assert verdicts == [True, False]


class TestDecode:
    def test_high_snr_recovers_support(self):
        # the correct support keeps only noise energy in its residual, so its
        # centered statistic sits orders of magnitude below any pretender;
        # event_failure may still fire (wide slack admits stray supports) but
        # the argmin must land on the truth
        for seed in range(5):
            sup, x, f, y, p = _instance(
                6, 1, 6, 4, 1e-4, 100.0, seeds=(seed, seed + 50, seed + 100, seed + 150)
            )
            out = decode(y, f, p, true_support=sup)
            assert out.decoded == sup
            assert out.correct_typical
            assert not out.decode_error

    def test_infinite_delta_makes_everything_typical(self):
        sup, x, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0)
        out = decode(y, f, replace(p, delta_override=math.inf), true_support=sup)
        assert out.correct_typical
        assert out.num_incorrect_typical == math.comb(6, 2) - 1
        assert out.event_failure  # incorrect supports are typical too

    def test_zero_delta_makes_nothing_typical(self):
        sup, x, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0)
        out = decode(y, f, replace(p, delta_override=0.0), true_support=sup)
        assert out.decoded is None
        assert not out.correct_typical
        assert out.num_incorrect_typical == 0
        assert out.event_failure

    def test_typical_set_grows_with_delta(self):
        sup, x, f, y, p = _instance(8, 2, 5, 2, 1.0, 4.0, seeds=(9, 10, 11, 12))
        deltas = [0.05, 0.2, 1.0, 5.0, math.inf]
        previous = None
        for d in deltas:
            flags = tuple(
                typicality_stat(SupportSet(j, 8), y, f, replace(p, delta_override=d)).typical
                for j in itertools.combinations(range(8), 2)
            )
            if previous is not None:
                assert all(b or not a for a, b in zip(previous, flags))
            previous = flags

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 3))
            m = int(rng.integers(k + 1, min(n, 6) + 1))
            s = int(rng.integers(1, 4))
            sigma2 = float(10.0 ** rng.uniform(-2, 0.5))
            sup, x, f, y, p = _instance(
                n, k, m, s, sigma2, 2.0,
                seeds=tuple(int(v) for v in rng.integers(0, 2**31, size=4)),
            )
            out = decode(y, f, p, true_support=sup)
            ref = brute_force_decode(
                y.measurements, f.matrices, sigma2, k, p.delta, sup.indices
            )
            decoded = out.decoded.indices if out.decoded is not None else None
            assert decoded == ref[0]
            assert out.correct_typical == ref[1]
            assert out.num_incorrect_typical == ref[2]
            assert out.event_failure == ref[3]
            assert out.decode_error == ref[4]

    def test_nan_delta_rejected(self):
        # NaN fails every comparison, so it must not reach the typicality test
        # and be tallied as "nothing typical"; the slack is params.delta, so
        # ProblemParams is where it stops
        sup, x, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0)
        with pytest.raises(InvalidRangeError):
            replace(p, delta_override=math.nan)

    def test_without_true_support_flags_are_none(self):
        sup, x, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0)
        out = decode(y, f, p)
        assert out.correct_typical is None
        assert out.event_failure is None
        assert out.decode_error is None

    def test_enumeration_cap(self):
        # C(64, 5) = 7,624,512 candidates are refused before any work
        sup, x, f, y, p = _instance(64, 5, 6, 1, 1.0, 4.0)
        assert math.comb(p.n, p.k) > decoder.ENUMERATION_CAP
        with pytest.raises(EnumerationBudgetError):
            decode(y, f, p, true_support=sup)

    def test_shape_mismatch(self):
        sup, x, f, y, _ = _instance(6, 2, 4, 2, 1.0, 4.0)
        other = ProblemParams(n=6, k=2, m=4, s=3, sigma2=1.0, xmin2=4.0)
        with pytest.raises(InvalidDimensionError):
            decode(y, f, other)

    @pytest.mark.parametrize("bad", [((0, 1, 2), 6), ((0, 1), 9)], ids=["size", "ambient"])
    def test_true_support_must_match_params(self, bad):
        # a mismatched support would be scored at some other candidate's
        # position and tallied as a failure
        _, x, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0)
        wrong = SupportSet(*bad)
        with pytest.raises(InvalidDimensionError):
            decode(y, f, p, true_support=wrong)
        with pytest.raises(InvalidDimensionError):
            decode_trials(f.matrices[None], y.measurements[None], p, wrong)

    def test_event_failure_definition_holds(self):
        # union bookkeeping: failure iff correct missed or any incorrect hit
        for seed in range(8):
            sup, x, f, y, p = _instance(
                6, 2, 4, 2, 0.5, 1.0, seeds=(seed, seed + 9, seed + 18, seed + 27)
            )
            out = decode(y, f, p, true_support=sup)
            assert out.event_failure == (
                (not out.correct_typical) or out.num_incorrect_typical > 0
            )


class TestExactTies:
    # column dup repeats column src in every sensing matrix, so the true
    # support and the one with src swapped for dup span the same columns
    # and score identically; a budget of four candidates a chunk puts their
    # sibling groups in different chunks of the walk, the default in one
    N, M, S = 8, 4, 2

    def _tied_trials(self, true, src, dup, trials):
        n, m, s = self.N, self.M, self.S
        support = SupportSet(true, n)
        p = ProblemParams(n=n, k=len(true), m=m, s=s, sigma2=1e-4, xmin2=1.0)
        instances = []
        for t in range(trials):
            x = sample_sparse_ensemble(support, s, 1.0, seed=100 + t)
            matrices = sample_sensing(m, n, s, 200 + t).matrices.copy()
            matrices[:, :, dup] = matrices[:, :, src]
            f = SensingEnsemble(matrices)
            instances.append((f, measure(x, f, p.sigma2, 300 + t)))
        return p, support, instances

    @pytest.mark.parametrize("split", [True, False])
    @pytest.mark.parametrize(
        "true, src, dup, earlier, later",
        [
            ((0, 5), 0, 2, (0, 5), (2, 5)),  # the true support comes first
            ((2, 5), 2, 0, (0, 5), (2, 5)),  # its tied twin comes first
        ],
    )
    def test_earlier_support_wins_a_tie(self, monkeypatch, true, src, dup, earlier, later, split):
        if split:
            monkeypatch.setattr(decoder, "_WALK_SCORES", 4 * self.S)
        p, support, instances = self._tied_trials(true, src, dup, trials=3)
        tables = decoder._prefix_tables(p.n, p.k)
        first, second = decoder._lex_rank(tables, earlier), decoder._lex_rank(tables, later)
        for f, y in instances:
            chunk_of, value_of = {}, {}
            for lo, value, _ in decoder._trial_scores(f.matrices[None], y.measurements[None], p.k):
                for i in (first, second):
                    if lo <= i < lo + value.shape[1]:
                        chunk_of[i], value_of[i] = lo, value[0, i - lo]
            assert (chunk_of[first] != chunk_of[second]) == split
            assert value_of[first] == value_of[second]
            out = decode(y, f, p, true_support=support)
            assert out.decoded == SupportSet(earlier, p.n)
        events = decode_trials(
            np.stack([f.matrices for f, _ in instances]),
            np.stack([y.measurements for _, y in instances]),
            p,
            support,
        )
        assert events.decode_error.tolist() == [earlier != true] * len(instances)
        assert events.correct_typical.all()


class TestPrefixTables:
    @pytest.mark.parametrize("n, k", [(6, 1), (9, 2), (10, 4), (12, 5)])
    def test_leaf_positions_round_trip(self, n, k):
        tables = decoder._prefix_tables(n, k)
        supports = list(itertools.combinations(range(n), k))
        # one (child_off, unc) pair per level above the candidates
        assert len(tables) == k - 1
        assert all(len(unc) == off[-1] for off, unc in tables)
        assert (tables[-1][0][-1] if tables else n) == len(supports)
        for i, support in enumerate(supports):
            assert decoder._support_at(tables, i) == support
            assert decoder._lex_rank(tables, support) == i

    @pytest.mark.parametrize("n, k", [(9, 2), (10, 4), (12, 5)])
    def test_unc_points_at_the_parents_sibling(self, n, k):
        # entry p + (c,) of level l+1 gathers column c from p[:-1] + (c,) of
        # level l, the sibling of p that ends in c
        tables = decoder._prefix_tables(n, k)
        for depth, (_, unc) in enumerate(tables, start=1):
            for i, j in enumerate(unc):
                prefix = decoder._support_at(tables[:depth], i)
                assert decoder._support_at(tables[: depth - 1], int(j)) == prefix[:-2] + prefix[-1:]


class TestWalkChunks:
    def test_a_chunk_holds_at_most_the_score_budget(self):
        # 200 vectors of C(20, 2) = 190 candidates: the walk must cut the
        # candidates so that no chunk holds more than _WALK_SCORES scores
        t, s, m, n, k = 1, 200, 3, 20, 2
        rng = np.random.default_rng(17)
        matrices = rng.standard_normal((t, s, m, n))
        measurements = rng.standard_normal((t, s, m))
        seen = 0
        for lo, value, _ in decoder._trial_scores(matrices, measurements, k):
            assert lo == seen
            assert t * s * value.shape[1] <= decoder._WALK_SCORES
            seen += value.shape[1]
        assert seen == math.comb(n, k)

    @pytest.mark.parametrize(
        "n, k, s",
        [(40, 2, 500), (20, 3, 1000)],
        ids=["leaves-of-one-parent", "prefixes-stay-whole"],
    )
    def test_a_sibling_group_over_the_budget_is_split(self, monkeypatch, n, k, s):
        # 39 x 500 = 19,500 scores below one parent at N=40, K=2: the group
        # alone exceeds _WALK_SCORES and is cut into parts; at K=3 the leaf
        # groups are cut and the groups of prefixes above them kept whole
        rng = np.random.default_rng(19)
        matrices = rng.standard_normal((1, s, 3, n))
        measurements = rng.standard_normal((1, s, 3))

        def scores():
            chunks = list(decoder._trial_scores(matrices, measurements, k))
            starts = np.cumsum([0] + [value.shape[1] for _, value, _ in chunks])
            assert [lo for lo, _, _ in chunks] == starts[:-1].tolist()
            return chunks

        chunks = scores()
        assert all(s * value.shape[1] <= decoder._WALK_SCORES for _, value, _ in chunks)
        monkeypatch.setattr(decoder, "_WALK_SCORES", 1 << 40)
        (whole,) = scores()
        assert whole[1].shape[1] == math.comb(n, k)
        for i in (1, 2):  # values summed over the s vectors, and rank flags
            assert np.array_equal(np.concatenate([c[i] for c in chunks], axis=1), whole[i])


def _stacks(seed, t, s, m, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((t, s, m, n)), rng.standard_normal((t, s, m))


def _walk_chunks(matrices, measurements, k):
    walk = decoder._trial_scores(matrices, measurements, k)
    return [(lo, value.copy(), ok.copy()) for lo, value, ok in walk]


def _same_chunks(a, b):
    return len(a) == len(b) and all(
        x[0] == y[0] and np.array_equal(x[1], y[1]) and np.array_equal(x[2], y[2]) for x, y in zip(a, b)
    )


class TestWalkBuffers:
    """A walk's buffer set is its own while it runs and serves the next walk after it."""

    # C(30, 4) = 27,405 candidates over two vectors: four chunks of at most 8,192
    SHAPE = dict(t=1, s=2, m=5, n=30)

    def test_a_suspended_walk_keeps_its_buffers(self):
        first, other = _stacks(3, **self.SHAPE), _stacks(4, **self.SHAPE)
        whole = _walk_chunks(*first, 4)
        assert len(whole) > 2
        walk = decoder._trial_scores(*first, 4)
        lo, value, ok = next(walk)
        # a walk over the same shapes runs to its end while the first is suspended
        _walk_chunks(*other, 4)
        assert _same_chunks([(lo, value, ok), *walk], whole)

    def test_a_walk_closed_early_leaves_the_next_one_intact(self):
        data = _stacks(5, **self.SHAPE)
        whole = _walk_chunks(*data, 4)
        walk = decoder._trial_scores(*_stacks(6, **self.SHAPE), 4)
        next(walk)
        next(walk)
        walk.close()
        assert _same_chunks(_walk_chunks(*data, 4), whole)

    @pytest.mark.parametrize(
        "large, small",
        [
            (dict(t=1, s=1, m=8, n=40), dict(t=1, s=1, m=4, n=12)),
            (dict(t=3, s=4, m=9, n=24), dict(t=2, s=3, m=5, n=10)),
        ],
        ids=["one-vector", "several-vectors"],
    )
    def test_a_smaller_walk_after_a_larger_one(self, monkeypatch, large, small):
        # the smaller walk reads views of the first elements of buffers grown
        # for the larger one; a walk with no history gets fresh buffers
        data = _stacks(7, **small)
        monkeypatch.setattr(decoder, "_IDLE_BUFFERS", [])
        fresh = _walk_chunks(*data, 3)
        _walk_chunks(*_stacks(8, **large), 3)
        assert _same_chunks(_walk_chunks(*data, 3), fresh)


class TestDecodeTrials:
    def test_each_trial_gets_decodes_events(self):
        instances = [
            _instance(7, 2, 4, 3, 0.3, 1.0, seeds=(5, 10 + t, 20 + t, 30 + t)) for t in range(6)
        ]
        support, _, _, _, p = instances[0]
        events = decode_trials(
            np.stack([f.matrices for _, _, f, _, _ in instances]),
            np.stack([y.measurements for _, _, _, y, _ in instances]),
            p,
            support,
        )
        outs = [decode(y, f, p, true_support=support) for _, _, f, y, _ in instances]
        assert events.correct_typical.tolist() == [o.correct_typical for o in outs]
        assert events.num_incorrect_typical.tolist() == [o.num_incorrect_typical for o in outs]
        assert events.decode_error.tolist() == [o.decode_error for o in outs]
        assert events.event_failure.tolist() == [o.event_failure for o in outs]
        assert 0 < sum(o.event_failure for o in outs) < len(outs)

    def test_shape_mismatch(self):
        sup, x, f, y, p = _instance(6, 2, 4, 2, 1.0, 4.0)
        with pytest.raises(InvalidDimensionError):
            decode_trials(f.matrices[None, :1], y.measurements[None], p, sup)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_walk_never_writes_its_inputs(self, k):
        # with one vector the walk's root columns are a view of the matrices,
        # and at K=1 they are also the candidates the leaf deflates by
        sup, _, f, y, p = _instance(8, k, 5, 1, 0.5, 1.0)
        matrices, measurements = np.array(f.matrices[None]), np.array(y.measurements[None])
        decode_trials(matrices, measurements, p, sup)
        np.testing.assert_array_equal(matrices, f.matrices[None])
        np.testing.assert_array_equal(measurements, y.measurements[None])

    def test_read_only_ensembles_at_one_column_and_one_vector(self):
        sup, _, f, y, p = _instance(8, 1, 5, 1, 0.5, 1.0)
        assert not f.matrices.flags.writeable
        out = decode(y, f, p, true_support=sup)
        events = decode_trials(np.array(f.matrices[None]), np.array(y.measurements[None]), p, sup)
        assert out.correct_typical == events.correct_typical[0]
        assert out.num_incorrect_typical == events.num_incorrect_typical[0]
        assert out.decode_error == events.decode_error[0]


class TestDefaultDelta:
    # the default slack (1/rho)(1 - K/M) xmin2 that ProblemParams.delta returns

    def test_half_sparsity_point(self):
        p = ProblemParams(n=8, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0, rho=2.0)
        assert p.delta == pytest.approx(0.25)

    def test_vanishes_as_rho_grows(self):
        values = [
            ProblemParams(n=8, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0, rho=r).delta
            for r in (2.0, 20.0, 2000.0)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3

    def test_admissibility_margin_at_reference_point(self):
        p = ProblemParams(n=10, k=2, m=8, s=4, sigma2=1.0, xmin2=10.0, rho=2.0)
        d = p.delta
        ceiling = (1.0 - p.k / p.m) * p.xmin2
        assert d == pytest.approx(3.75)
        assert ceiling == pytest.approx(7.5)
        assert 0.0 < d < ceiling

    def test_rho_validation_lives_in_params(self):
        with pytest.raises(InvalidParameterError):
            ProblemParams(n=8, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0, rho=0.5)
