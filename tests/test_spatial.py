"""Position sampling, bottleneck distances, and spacing geometry."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchfl.errors import ParameterError
from pinchfl.spatial import (CONV, GAUSSIAN_MIXTURE, PA, UNIFORM,
                             DistributionSpec, _min_spacing,
                             draw_positions, pa_offsets, sample_positions,
                             schedule_round, sorted_conv_offsets)

UNI = DistributionSpec(kind=UNIFORM, D=10.0)
GM = DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=3.0, sigma=0.5)


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
        for K in (0, 2.5, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                sample_positions(UNI, K, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(D=st.floats(1e-6, 1e6), seed=st.integers(0, 10_000))
    def test_uniform_has_the_bits_of_rng_uniform(self, D, seed):
        want = np.random.default_rng(seed).uniform(-D / 2.0, D / 2.0,
                                                   size=(50, 40))
        got = draw_positions(np.random.default_rng(seed),
                             DistributionSpec(kind=UNIFORM, D=D), (50, 40))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=50, deadline=None)
    @given(size=st.sampled_from([1, 7, (3, 5), (1, 1)]),
           seed=st.integers(0, 10_000))
    def test_mixture_normals_from_a_second_generator(self, size, seed):
        # coins from the first generator, normals from the second; with no
        # second generator both come from the first, coins before normals
        coins, normals = (np.random.default_rng([seed, i]) for i in (0, 1))
        got = draw_positions(coins, GM, size, normals)
        coins, normals = (np.random.default_rng([seed, i]) for i in (0, 1))
        centers = np.where(coins.random(size) < 0.5, -GM.mu, GM.mu)
        assert np.array_equal(got, centers + normals.normal(0.0, GM.sigma,
                                                            size=size))
        one = np.random.default_rng(seed)
        centers = np.where(one.random(size) < 0.5, -GM.mu, GM.mu)
        want = centers + one.normal(0.0, GM.sigma, size=size)
        got = draw_positions(np.random.default_rng(seed), GM, size)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from([UNIFORM, GAUSSIAN_MIXTURE]),
           mu=st.sampled_from([0.0, 3.0]) | st.floats(0.0, 50.0),
           sigma=st.sampled_from([5e-324, 0.5]) | st.floats(1e-300, 10.0),
           n=st.integers(1, 40), K=st.integers(1, 9), extra=st.integers(0, 5),
           two=st.booleans(), seed=st.integers(0, 10_000))
    # a subnormal sigma rounds half the offsets sigma z to +0.0 or -0.0, so
    # mu=0 draws exact zeros of both signs
    @example(kind=GAUSSIAN_MIXTURE, mu=0.0, sigma=5e-324, n=40, K=9, extra=1,
             two=True, seed=0)
    @example(kind=GAUSSIAN_MIXTURE, mu=0.0, sigma=5e-324, n=40, K=9, extra=0,
             two=False, seed=1)
    def test_out_has_the_bits_of_a_fresh_draw(self, kind, mu, sigma, n, K,
                                              extra, two, seed):
        spec = DistributionSpec(kind=kind, D=10.0, mu=mu, sigma=sigma)

        def generators():
            coins, normals = (np.random.default_rng([seed, i]) for i in (0, 1))
            return coins, normals if two else None

        coins, normals = generators()
        want = draw_positions(coins, spec, (n, K), normals)
        # the first rows of a larger buffer, holding stale values
        out = np.full((n + extra, K), -np.inf)[:n]
        coins, normals = generators()
        got = draw_positions(coins, spec, (n, K), normals, out=out)
        assert got is out
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if kind == GAUSSIAN_MIXTURE:
            # numpy's own mixture: -mu or mu, plus normal(0, sigma), which is
            # 0.0 + sigma z
            coins, normals = generators()
            centres = np.where(coins.random((n, K)) < 0.5, -mu, mu)
            normals = coins if normals is None else normals
            ref = centres + normals.normal(0.0, sigma, size=(n, K))
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_out_must_be_c_contiguous(self):
        # numpy would fill a Fortran-order buffer in memory order, which is
        # not the draw a fresh call returns
        for out in (np.empty((3, 4), order="F"), np.empty((3, 8))[:, ::2]):
            with pytest.raises(ParameterError):
                draw_positions(np.random.default_rng(0), UNI, (3, 4), out=out)

    def test_integral_float_k_is_an_int(self):
        for spec in (UNI, GM):
            assert np.array_equal(sample_positions(spec, 2.0, 0),
                                  sample_positions(spec, 2, 0))


class TestConvBottleneck:
    def test_hand_case(self):
        xs = np.array([-4.0, -1.0, 0.5, 2.0])
        for M, want in [(1, 0.5), (2, 1.0), (4, 4.0)]:
            assert np.sort(np.abs(xs))[M - 1] == want
            assert sorted_conv_offsets(xs, M) == want


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
        assert pa_offsets(np.sort(xs), M) <= np.sort(np.abs(xs))[M - 1] + 1e-12

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

    def test_conv_tie_at_the_mth_place_takes_the_negative_user(self):
        # |1.0| = |-1.0| at the second place: the window [-1.0, 0.5] starts
        # lowest in the sorted row, so it wins over the lower index 0
        sched, z = schedule_round(np.array([1.0, 0.5, -1.0, 3.0]), 2, CONV)
        assert list(sched) == [1, 2]
        assert z == 0.0

    def test_rejects_bad_input(self):
        xs = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(ParameterError):
            schedule_round(xs, 2, "BEAM")
        for arch in (CONV, PA):
            with pytest.raises(ParameterError):
                schedule_round(xs[None, :], 2, arch)
            with pytest.raises(ParameterError):
                schedule_round(np.zeros((2, 2)), 1, arch)
            # a NaN's window used to win PA's argmin
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ParameterError, match="xs"):
                    schedule_round(np.array([0.1, bad, -0.3, 2.0]), 2, arch)


def _peak_columns(run, n):
    """Peak memory that ``run()`` allocates after a first, untraced call, in
    columns of ``n`` doubles."""
    run()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * 8)


class TestBatchedBottlenecks:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), K=st.integers(1, 12), seed=st.integers(0, 10_000),
           data=st.data())
    def test_rows_match_scalar_reference(self, n, K, seed, data):
        M = data.draw(st.integers(1, K))
        rng = np.random.default_rng(seed)
        # rounding to a coarse grid makes ties between windows common
        xs = np.round(rng.uniform(-5, 5, (n, K)), 1)
        conv = np.sort(np.abs(xs), axis=-1)[..., M - 1]
        sorted_conv = sorted_conv_offsets(np.sort(xs, axis=1), M)
        half = pa_offsets(np.sort(xs, axis=1), M)
        assert conv.shape == sorted_conv.shape == half.shape == (n,)
        for i, row in enumerate(xs.tolist()):
            srt = sorted(row)
            spans = [srt[j + M - 1] - srt[j] for j in range(K - M + 1)]
            assert conv[i] == sorted(abs(x) for x in row)[M - 1]
            # ``==``: a window may give -0.0 where the reference has 0.0
            assert sorted_conv[i] == conv[i]
            assert half[i] == min(spans) / 2.0
            assert half[i] <= conv[i]
            assert conv[i] == np.sort(np.abs(np.array(row)))[M - 1]
            # the windows: the stable sort order of the row, from the first
            # start of the least cost, and that cost is the kernel's on the
            # (1, K) batch, bit for bit but for the sign of a zero: the
            # running minimum keeps the last of tied windows
            order = sorted(range(K), key=row.__getitem__)
            reach = np.maximum(-np.array(srt[:K - M + 1]),
                               srt[M - 1:]).tolist()
            for arch, costs, kernel, scale in (
                    (CONV, reach, sorted_conv_offsets, 1.0),
                    (PA, spans, pa_offsets, 2.0)):
                start = costs.index(min(costs))
                sched, z = schedule_round(np.array(row), M, arch)
                assert list(sched) == sorted(order[start:start + M])
                assert z == (0.0 if arch == CONV else
                             0.5 * (srt[start] + srt[start + M - 1]))
                cost = np.float64(costs[start] / scale)
                got = kernel(np.array([srt]), M)
                assert got == cost
                assert cost == 0 or got.tobytes() == cost.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 40), K=st.integers(1, 12), seed=st.integers(0, 10_000),
           data=st.data())
    def test_pa_offsets_ignore_memory_layout(self, n, K, seed, data):
        M = data.draw(st.integers(1, K))
        rng = np.random.default_rng(seed)
        xs = np.sort(np.round(rng.uniform(-5, 5, (n, K)), 1), axis=1)
        for kernel in (pa_offsets, sorted_conv_offsets):
            c_out = kernel(np.ascontiguousarray(xs), M)
            f_out = kernel(np.asfortranarray(xs), M)
            assert c_out.tobytes() == f_out.tobytes()

    @pytest.mark.parametrize("K, M, columns, chunk", [
        pytest.param(1, 1, 1, None, id="1-1-1"),
        pytest.param(5, 5, 1, None, id="5-5-1"),
        pytest.param(5, 2, 2, None, id="5-2-2"),
        # given ``work``, the chunks of windows go there, however wide
        pytest.param(1, 1, 1, 8, id="work-1-1-1"),
        pytest.param(5, 5, 1, 8, id="work-5-5-1"),
        pytest.param(40, 7, 2, 1, id="work-40-7-2-chunk1"),
        pytest.param(40, 7, 2, 8, id="work-40-7-2-chunk8"),
        pytest.param(40, 7, 2, 1000, id="work-40-7-2-chunk1000"),
    ])
    def test_scratch_only_for_a_second_window(self, K, M, columns, chunk):
        # the result and, only when there is a second window, one scratch
        # column of the batch shape
        xs = np.sort(np.random.default_rng(0).random((512, K)), axis=1)
        work = None
        if chunk is not None:
            # the layout the chunks are for: on C-order rows numpy buffers
            # a chunk's strided reads
            xs, work = np.asfortranarray(xs), np.empty(512 * chunk)
        for kernel in (lambda: pa_offsets(xs, M, work),
                       lambda: sorted_conv_offsets(xs, M, work)):
            assert columns <= _peak_columns(kernel, 512) < columns + 0.5

    @pytest.mark.parametrize("K", [1, 2, 40])
    def test_spacing_allocates_nothing(self, K):
        # the edge gaps, twice the half gap and their minimum all go into
        # the two columns of ``work``
        xs = np.asfortranarray(np.sort(
            np.random.default_rng(0).uniform(-5, 5, (512, K)), axis=1))
        half2 = pa_offsets(xs, 2) if K >= 2 else None
        work = np.empty(2 * 512)
        assert _peak_columns(lambda: _min_spacing(xs, half2, 10.0, work),
                             512) < 0.1

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 20), K=st.integers(1, 12), M=st.integers(1, 12),
           width=st.sampled_from(["1", "2", "3", "w-1", "w", "w+2"]),
           order=st.sampled_from("CF"), seed=st.integers(0, 10_000))
    @example(n=3, K=1, M=1, width="w+2", order="F", seed=0)
    @example(n=4, K=6, M=6, width="w", order="C", seed=1)
    @example(n=5, K=9, M=1, width="w-1", order="F", seed=2)
    @example(n=1, K=12, M=3, width="3", order="F", seed=3)
    def test_chunks_match_one_window_scan(self, n, K, M, width, order, seed):
        M = min(M, K)

        def work(windows):
            # ``width`` windows per chunk: the buffer holds that many columns
            w = max(windows, 1)
            cols = {"w-1": max(w - 1, 1), "w": w, "w+2": w + 2}.get(width)
            return np.empty(n * (int(width) if cols is None else cols))

        rng = np.random.default_rng(seed)
        # a coarse grid makes ties between windows common; + 0.0 clears the
        # -0.0 that rounding leaves and no draw makes, whose sign in a zero
        # span would depend on the order of the minima
        xs = np.sort(np.round(rng.uniform(-5, 5, (n, K)), 1) + 0.0, axis=1)
        xs = np.asarray(xs, order=order)
        windows = K - M + 1
        half = pa_offsets(xs, M, work(windows))
        conv = sorted_conv_offsets(xs, M, work(windows))
        # the spacing of the half gaps of a chunked scan
        half2 = pa_offsets(xs, 2, work(K - 1)) if K >= 2 else None
        gap = _min_spacing(xs, half2, 10.0, np.empty(2 * n))
        assert half.tobytes() == pa_offsets(xs, M).tobytes()
        # ``==``: a window may give -0.0 where another chunking gives 0.0
        assert np.array_equal(conv, sorted_conv_offsets(xs, M))
        assert gap.tobytes() == _spacing(xs, 10.0).tobytes()
        for i in range(n):
            assert half[i] == (xs[i, M - 1:] - xs[i, :K - M + 1]).min() / 2.0
            assert conv[i] == sorted(abs(x) for x in xs[i])[M - 1]
            assert gap[i] == np.diff(xs[i], prepend=-5.0,
                                     append=5.0).min() / 10.0

    @pytest.mark.parametrize("with_work", [False, True],
                             ids=["one-window", "work"])
    @pytest.mark.parametrize("kernel", [pa_offsets, sorted_conv_offsets],
                             ids=["pa", "conv"])
    @pytest.mark.parametrize("K, M", [(3, -1), (3, 0), (3, 4), (0, 1)],
                             ids=["M-1", "M0", "M=K+1", "K0"])
    def test_window_size_outside_one_to_k_rejected(self, K, M, kernel,
                                                   with_work):
        # M = -1 used to index the row from its end and return a value
        xs = np.sort(np.random.default_rng(0).random((2, K)), axis=1)
        work = np.empty(2 * 8) if with_work else None
        with pytest.raises(ParameterError, match="M="):
            kernel(xs, M, work)

    def test_work_must_hold_a_column_of_floats(self):
        xs = np.sort(np.random.default_rng(0).random((4, 5)), axis=1)
        for work in (np.empty(3), np.empty((4, 2)), np.empty(8, np.float32)):
            for kernel in (lambda: pa_offsets(xs, 2, work),
                           lambda: sorted_conv_offsets(xs, 2, work)):
                with pytest.raises(ParameterError):
                    kernel()


def _spacing(sorted_xs, D):
    """``_min_spacing`` of sorted rows as ``verify_bounds`` calls it: on half
    the smallest interior gap, ``pa_offsets`` at M=2, and two columns of
    ``work``."""
    half2 = pa_offsets(sorted_xs, 2) if sorted_xs.shape[1] >= 2 else None
    return _min_spacing(sorted_xs, half2, D, np.empty(2 * len(sorted_xs)))


class TestMinSimpleSpacing:
    def test_range_bound(self):
        for seed in range(20):
            xs = np.sort(sample_positions(UNI, 10, seed=seed))
            v = _spacing(xs[None, :], 10.0)
            assert v.shape == (1,)
            assert 0.0 <= v[0] <= 1.0 / (10 + 1)

    def test_hand_case(self):
        # points at -2.5 and 0 on [-5, 5] leave gaps 2.5, 2.5, 5; a point at
        # 1 leaves 6 and 4
        assert _spacing(np.array([[-2.5, 0.0]]), 10.0)[0] == 0.25
        assert _spacing(np.array([[1.0]]), 10.0)[0] == 0.4

    def test_single_row_is_a_batch_of_one(self):
        # a row alone has the bits it has in a larger batch
        xs = np.sort(np.random.default_rng(2).uniform(-5, 5, (6, 9)), axis=1)
        for i in range(len(xs)):
            one = _spacing(xs[i:i + 1], 10.0)
            assert one.shape == (1,)
            assert one.tobytes() == _spacing(xs, 10.0)[i:i + 1].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), K=st.sampled_from([1, 2, 3, 10, 40]),
           D=st.sampled_from([10.0, 1.0, 3.7, 1e3]),
           seed=st.integers(0, 10_000))
    @example(n=5, K=1, D=10.0, seed=0)
    def test_rows_match_scalar_reference(self, n, K, D, seed):
        rng = np.random.default_rng(seed)
        # a coarse grid makes equal points, zero gaps and points on the
        # corridor's ends common; + 0.0 clears the -0.0 of rounding
        grid = np.round(rng.uniform(-0.5, 0.5, (n, K)) * 10.0) * (D / 10.0)
        xs = np.sort(np.clip(grid, -D / 2.0, D / 2.0) + 0.0, axis=1)
        c_gap = _spacing(np.ascontiguousarray(xs), D)
        f_gap = _spacing(np.asfortranarray(xs), D)
        assert c_gap.shape == (n,)
        assert c_gap.tobytes() == f_gap.tobytes()
        edges = np.full((n, 1), D / 2.0)
        ref = np.diff(np.hstack([-edges, xs, edges]), axis=1).min(axis=1) / D
        assert c_gap.tobytes() == ref.tobytes()
        # the gaps of the points rescaled to u = (x + D/2) / D on [0, 1]
        u = (xs + D / 2.0) / D
        via_u = np.diff(u, axis=1, prepend=0.0, append=1.0).min(axis=1)
        assert np.all(np.abs(c_gap - via_u) <= 4 * 2.0**-53)
