"""Position sampling, bottleneck distances, and spacing geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchfl.errors import ParameterError
from pinchfl.spatial import (CONV, GAUSSIAN_MIXTURE, PA, UNIFORM,
                             DistributionSpec, conv_offsets, draw_positions,
                             min_spacings, pa_offsets, sample_positions,
                             schedule_round)

UNI = DistributionSpec(kind=UNIFORM, D=10.0)


class TestDistributionSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            DistributionSpec(kind="triangular", D=1.0)

    def test_uniform_needs_positive_D(self):
        with pytest.raises(ParameterError):
            DistributionSpec(kind=UNIFORM, D=0.0)

    def test_gm_needs_positive_sigma(self):
        with pytest.raises(ParameterError):
            DistributionSpec(kind=GAUSSIAN_MIXTURE, mu=3.0, sigma=0.0)


class TestSamplePositions:
    def test_uniform_in_range_and_reproducible(self):
        s1 = sample_positions(UNI, 500, seed=3)
        s2 = sample_positions(UNI, 500, seed=3)
        assert np.array_equal(s1, s2)
        assert np.all(np.abs(s1) <= 5.0)
        assert s1.shape == (500,)

    def test_gm_unclipped_and_bimodal(self):
        spec = DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=30.0, sigma=0.5)
        s = sample_positions(spec, 2000, seed=1)
        # far-out clusters prove there is no clipping to the corridor
        assert np.max(np.abs(s)) > 5.0
        frac_pos = np.mean(s > 0)
        assert 0.4 < frac_pos < 0.6

    def test_sample_is_a_batch_of_one(self):
        gm = DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=3.0, sigma=0.5)
        for spec in (UNI, gm):
            for seed in range(5):
                batch = draw_positions(np.random.default_rng(seed), spec, (1, 17))
                assert batch.shape == (1, 17)
                assert np.array_equal(batch[0], sample_positions(spec, 17, seed))

    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError):
            sample_positions(UNI, 0, seed=0)


class TestConvBottleneck:
    def test_hand_case(self):
        xs = np.array([-4.0, -1.0, 0.5, 2.0])
        assert conv_offsets(xs, 1) == 0.5
        assert conv_offsets(xs, 2) == 1.0
        assert conv_offsets(xs, 4) == 4.0


class TestPaBottleneck:
    def test_hand_case_window(self):
        xs = np.array([-4.0, -1.0, 0.0, 3.0])
        sched, z = schedule_round(xs, 2, PA)
        # tightest 2-window is [-1, 0]: half-span 0.5, midpoint -0.5
        assert list(sched) == [1, 2]
        assert z == -0.5
        assert pa_offsets(xs, 2) == 0.5

    def test_m1_degenerate(self):
        xs = np.array([2.0, -3.0, 1.0])
        sched, z = schedule_round(xs, 1, PA)
        assert pa_offsets(np.sort(xs), 1) == 0.0
        assert z in (-3.0, 1.0, 2.0)
        assert xs[sched[0]] == z

    def test_m_out_of_range(self):
        for arch in (CONV, PA):
            for M in (0, 3, 1.5):
                with pytest.raises(ParameterError):
                    schedule_round(np.array([0.0, 1.0]), M, arch)

    def test_tie_break_lowest_start(self):
        sched, z = schedule_round(np.array([0.0, 1.0, 2.0, 3.0]), 2, PA)
        assert list(sched) == [0, 1]
        assert z == 0.5

    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=30),
           data=st.data())
    def test_ordering_pa_le_conv(self, xs, data):
        M = data.draw(st.integers(1, len(xs)))
        xs = np.asarray(xs)
        assert pa_offsets(np.sort(xs), M) <= conv_offsets(xs, M) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), K=st.integers(2, 40), data=st.data())
    def test_window_is_really_tightest(self, seed, K, data):
        M = data.draw(st.integers(2, K))
        xs = sample_positions(UNI, K, seed=seed)
        sched, _ = schedule_round(xs, M, PA)
        srt = np.sort(xs)
        brute = min(srt[i + M - 1] - srt[i] for i in range(K - M + 1))
        assert np.ptp(xs[sched]) == brute
        assert pa_offsets(srt, M) == pytest.approx(brute / 2.0, abs=1e-12)


class TestScheduleRound:
    def test_conv_picks_closest(self):
        sched, z = schedule_round(np.array([-4.0, -1.0, 0.5, 2.0]), 2, CONV)
        assert list(sched) == [1, 2]
        assert z == 0.0

    def test_pa_picks_tightest_window(self):
        # unsorted input: the window's indices are mapped back to the caller's
        # order and returned ascending
        sched, z = schedule_round(np.array([3.0, -1.0, -4.0, 0.0]), 2, PA)
        assert list(sched) == [1, 3]
        assert z == -0.5

    def test_rejects_bad_input(self):
        xs = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(ParameterError):
            schedule_round(xs, 2, "BEAM")
        for arch in (CONV, PA):
            with pytest.raises(ParameterError):
                schedule_round(xs[None, :], 2, arch)
            with pytest.raises(ParameterError):
                schedule_round(np.zeros((2, 2)), 1, arch)


class TestBatchedBottlenecks:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), K=st.integers(1, 12), seed=st.integers(0, 10_000),
           data=st.data())
    def test_rows_match_scalar_reference(self, n, K, seed, data):
        M = data.draw(st.integers(1, K))
        rng = np.random.default_rng(seed)
        # rounding to a coarse grid makes ties between windows common
        xs = np.round(rng.uniform(-5, 5, (n, K)), 1)
        conv = conv_offsets(xs, M)
        half = pa_offsets(np.sort(xs, axis=1), M)
        assert conv.shape == half.shape == (n,)
        for i, row in enumerate(xs.tolist()):
            srt = sorted(row)
            spans = [srt[j + M - 1] - srt[j] for j in range(K - M + 1)]
            start = spans.index(min(spans))
            assert conv[i] == sorted(abs(x) for x in row)[M - 1]
            assert half[i] == min(spans) / 2.0
            assert half[i] <= conv[i]
            assert conv[i] == conv_offsets(np.array(row), M)
            # the window: the stable sort order of the row, from ``start``
            order = sorted(range(K), key=row.__getitem__)
            sched, z = schedule_round(np.array(row), M, PA)
            assert list(sched) == sorted(order[start:start + M])
            assert z == 0.5 * (srt[start] + srt[start + M - 1])

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 40), K=st.integers(1, 12), seed=st.integers(0, 10_000),
           data=st.data())
    def test_pa_offsets_ignore_memory_layout(self, n, K, seed, data):
        M = data.draw(st.integers(1, K))
        rng = np.random.default_rng(seed)
        xs = np.sort(np.round(rng.uniform(-5, 5, (n, K)), 1), axis=1)
        c_half = pa_offsets(np.ascontiguousarray(xs), M)
        f_half = pa_offsets(np.asfortranarray(xs), M)
        assert c_half.tobytes() == f_half.tobytes()

    def test_conv_takes_several_m_at_once(self):
        xs = np.random.default_rng(1).uniform(-5, 5, (4, 9))
        both = conv_offsets(xs, [2, 7])
        assert both.shape == (4, 2)
        assert np.array_equal(both[:, 0], conv_offsets(xs, 2))
        assert np.array_equal(both[:, 1], conv_offsets(xs, 7))


class TestMinSimpleSpacing:
    def test_range_bound(self):
        for seed in range(20):
            u = np.sort(sample_positions(UNI, 10, seed=seed)) / 10.0 + 0.5
            v = min_spacings(u[None, :])
            assert v.shape == (1,)
            assert 0.0 <= v[0] <= 1.0 / (10 + 1)

    def test_hand_case(self):
        # points at u = 0.25, 0.5 leave gaps 0.25, 0.25, 0.5
        assert min_spacings(np.array([[0.25, 0.5]]))[0] == 0.25

    def test_single_row_is_a_batch_of_one(self):
        u = np.sort(np.random.default_rng(2).random((1, 9)), axis=1)
        one = min_spacings(u[0])
        assert one.shape == ()
        assert one == min_spacings(u)[0]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), K=st.sampled_from([1, 2, 10]),
           seed=st.integers(0, 10_000))
    def test_rows_match_scalar_reference(self, n, K, seed):
        rng = np.random.default_rng(seed)
        # a coarse grid makes equal points and zero gaps common
        u = np.sort(np.round(rng.random((n, K)), 1), axis=1)
        c_gap = min_spacings(np.ascontiguousarray(u))
        f_gap = min_spacings(np.asfortranarray(u))
        assert c_gap.shape == (n,)
        assert c_gap.tobytes() == f_gap.tobytes()
        for i, row in enumerate(u):
            ref = np.diff(np.sort(row), prepend=0.0, append=1.0).min()
            assert c_gap[i] == ref
