"""Position sampling, bottleneck distances, and spacing geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchfl.errors import ParameterError
from pinchfl.spatial import (GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec,
                             PositionSample, conv_offsets, draw_positions,
                             min_spacings, pa_bottleneck, pa_offsets,
                             sample_positions)

UNI = DistributionSpec(kind=UNIFORM, D=10.0)


def make_sample(xs):
    return PositionSample(xs=np.asarray(xs, float), spec=UNI, seed=0)


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
        assert np.array_equal(s1.xs, s2.xs)
        assert np.all(np.abs(s1.xs) <= 5.0)
        assert s1.K == 500

    def test_gm_unclipped_and_bimodal(self):
        spec = DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=30.0, sigma=0.5)
        s = sample_positions(spec, 2000, seed=1)
        # far-out clusters prove there is no clipping to the corridor
        assert np.max(np.abs(s.xs)) > 5.0
        frac_pos = np.mean(s.xs > 0)
        assert 0.4 < frac_pos < 0.6

    def test_sample_is_a_batch_of_one(self):
        gm = DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=3.0, sigma=0.5)
        for spec in (UNI, gm):
            for seed in range(5):
                batch = draw_positions(np.random.default_rng(seed), spec, (1, 17))
                assert batch.shape == (1, 17)
                assert np.array_equal(batch[0], sample_positions(spec, 17, seed).xs)

    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError):
            sample_positions(UNI, 0, seed=0)


class TestConvBottleneck:
    def test_hand_case(self):
        s = make_sample([-4.0, -1.0, 0.5, 2.0])
        assert conv_offsets(s.xs, 1) == 0.5
        assert conv_offsets(s.xs, 2) == 1.0
        assert conv_offsets(s.xs, 4) == 4.0


class TestPaBottleneck:
    def test_hand_case_window(self):
        s = make_sample([-4.0, -1.0, 0.0, 3.0])
        off = pa_bottleneck(s, 2)
        # tightest 2-window is [-1, 0]: half-span 0.5, midpoint -0.5
        assert off.pa_offset == pytest.approx(0.5)
        assert off.z_star == pytest.approx(-0.5)
        assert off.window == (1, 2)

    def test_m1_degenerate(self):
        s = make_sample([2.0, -3.0, 1.0])
        off = pa_bottleneck(s, 1)
        assert off.pa_offset == 0.0
        assert off.z_star in (-3.0, 1.0, 2.0)

    def test_m_out_of_range(self):
        s = make_sample([0.0, 1.0])
        with pytest.raises(ParameterError):
            pa_bottleneck(s, 3)

    def test_tie_break_lowest_start(self):
        s = make_sample([0.0, 1.0, 2.0, 3.0])
        off = pa_bottleneck(s, 2)
        assert off.window == (0, 1)
        assert off.z_star == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=30),
           data=st.data())
    def test_ordering_pa_le_conv(self, xs, data):
        M = data.draw(st.integers(1, len(xs)))
        s = make_sample(xs)
        assert pa_bottleneck(s, M).pa_offset <= conv_offsets(s.xs, M) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), K=st.integers(2, 40), data=st.data())
    def test_window_is_really_tightest(self, seed, K, data):
        M = data.draw(st.integers(2, K))
        s = sample_positions(UNI, K, seed=seed)
        off = pa_bottleneck(s, M)
        xs = s.sorted_xs()
        brute = min(xs[i + M - 1] - xs[i] for i in range(K - M + 1)) / 2.0
        assert off.pa_offset == pytest.approx(brute, abs=1e-12)


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
            s = make_sample(row)
            off = pa_bottleneck(s, M)
            assert conv[i] == conv_offsets(s.xs, M)
            assert half[i] == off.pa_offset
            assert off.window == (start, start + M - 1)
            assert off.z_star == 0.5 * (srt[start] + srt[start + M - 1])

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
            u = np.sort(sample_positions(UNI, 10, seed=seed).xs) / 10.0 + 0.5
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
