"""Position sampling, bottleneck distances, and spacing geometry."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchfl.errors import ParameterError
from pinchfl.spatial import (CONV, GAUSSIAN_MIXTURE, PA, UNIFORM,
                             DistributionSpec, _min_spacing, _reach,
                             _scan_windows, _smallest_abs, _width, _window_min,
                             bottlenecks, draw_positions, pa_offsets,
                             sample_positions, schedule_round,
                             sorted_conv_offsets)

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


@st.composite
def _edge_rows(draw):
    """Rows of signed zeros, subnormals and magnitudes up to 1e300, with
    exact ties: repeated values and values beside their negation."""
    xs = draw(st.lists(st.one_of(
        st.floats(-1e300, 1e300, allow_nan=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0])),
        min_size=1, max_size=10))
    ties = draw(st.lists(st.sampled_from(xs), max_size=4))
    return xs + [draw(st.sampled_from([x, -x])) for x in ties]


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
    @given(row=_edge_rows())
    @example(row=[-1.0, 1.0])
    @example(row=[-0.0, 0.0, 5e-324])
    @example(row=[-1e300, -1e300, 1e300])
    def test_ordering_pa_le_conv(self, row):
        # rounding is monotone and b - a <= 2 max(-a, b), so the rounded half
        # span of a window never exceeds its larger end offset: PA <= CONV
        # holds bit for bit, in one window at a time (the kernels) and in
        # chunks of them (verify's ``_scan_windows``)
        srt = np.sort(np.array(row))[None]
        K = len(row)
        for M in range(1, K + 1):
            conv = float(sorted_conv_offsets(srt, M)[0])
            assert conv == np.sort(np.abs(row))[M - 1]
            half = float(pa_offsets(srt, M)[0])
            assert half <= conv, f"M={M}: PA {half!r} > CONV {conv!r}"
            for work in (np.empty(K - M + 1), np.empty(1)):
                assert _chunked(srt, M, _reach, work)[0] == conv
                half = float(_chunked(srt, M, _width, work)[0] / 2.0)
                assert half <= conv, f"M={M}: PA {half!r} > CONV {conv!r}"

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


class TestBottlenecks:
    def test_one_kernel_per_architecture(self):
        # and verify's chunked scan of the kernel's window cost agrees
        srt = np.sort(np.random.default_rng(3).uniform(-5, 5, (50, 9)), axis=1)
        for M in (1, 4, 9):
            for arch, kernel, cost, scale in (
                    (CONV, sorted_conv_offsets, _reach, 1.0),
                    (PA, pa_offsets, _width, 0.5)):
                want = kernel(srt, M)
                assert np.array_equal(bottlenecks(srt, M, arch), want)
                assert np.array_equal(
                    _chunked(srt, M, cost, np.empty(50 * 3)) * scale, want)

    def test_an_upload_is_the_round_of_one_user(self):
        # CONV serves a lone user at |x|, PA pins the radiator over it
        xs = np.array([-4.5, -0.0, 0.0, 1e-300, 2.5])
        assert bottlenecks(xs[:, None], 1, CONV).tolist() == \
            np.abs(xs).tolist()
        assert bottlenecks(xs[:, None], 1, PA).tolist() == [0.0] * 5

    def test_unknown_architecture_rejected(self):
        for arch in ("BEAM", "conv", None):
            with pytest.raises(ParameterError, match="unknown architecture"):
                bottlenecks(np.zeros((2, 3)), 2, arch)


def _chunked(sorted_xs, M, cost, work):
    """``_scan_windows`` of ``cost`` in chunks of as many windows as the
    flat buffer ``work`` holds columns, into new result and scratch
    columns."""
    best = np.empty(sorted_xs.shape[:-1])
    return _scan_windows(sorted_xs, M, cost, work, best, np.empty_like(best))


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
        # verify's chunked scan puts the chunks of windows in ``work``,
        # however wide, and allocates nothing beyond its caller's columns
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
        if chunk is None:
            kernels = [lambda: pa_offsets(xs, M),
                       lambda: sorted_conv_offsets(xs, M)]
        else:
            # the layout the chunks are for: on C-order rows numpy buffers
            # a chunk's strided reads.  The scan allocates nothing, so its
            # caller's columns are allocated here, the scratch only if a
            # second window needs it
            xs, work = np.asfortranarray(xs), np.empty(512 * chunk)
            kernels = [lambda cost=cost: _scan_windows(
                xs, M, cost, work, np.empty(512),
                np.empty(512) if M < K else None) for cost in (_width, _reach)]
        for kernel in kernels:
            assert columns <= _peak_columns(kernel, 512) < columns + 0.5

    @pytest.mark.parametrize("K, M", [(1, 1), (5, 5), (5, 2), (40, 7)])
    def test_scan_into_caller_columns_allocates_nothing(self, K, M):
        # the kernels' bits, in the caller's result and scratch columns;
        # numpy's reductions keep a few hundred bytes of iterator state
        n = 4096
        xs = np.asfortranarray(np.sort(
            np.random.default_rng(0).uniform(-5, 5, (n, K)), axis=1))
        work, best, scratch = np.empty(n * 8), np.empty(n), np.empty(n)
        for cost, kernel, scale in ((_reach, sorted_conv_offsets, 1.0),
                                    (_width, pa_offsets, 0.5)):
            got = _scan_windows(xs, M, cost, work, best, scratch)
            assert got is best
            assert (got * scale).tobytes() == kernel(xs, M).tobytes()
            assert _peak_columns(lambda: _scan_windows(
                xs, M, cost, work, best, scratch), n) < 0.1

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
        half = _chunked(xs, M, _width, work(windows)) / 2.0
        conv = _chunked(xs, M, _reach, work(windows))
        # the spacing of the half gaps of a chunked scan
        half2 = _chunked(xs, 2, _width, work(K - 1)) / 2.0 if K >= 2 else None
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

    @pytest.mark.parametrize("core", [False, True],
                             ids=["one-window", "work"])
    @pytest.mark.parametrize("kernel", [pa_offsets, sorted_conv_offsets],
                             ids=["pa", "conv"])
    @pytest.mark.parametrize("K, M", [(3, -1), (3, 0), (3, 4), (0, 1)],
                             ids=["M-1", "M0", "M=K+1", "K0"])
    def test_window_size_outside_one_to_k_rejected(self, K, M, kernel, core):
        # M = -1 used to index the row from its end and return a value.
        # The check is the window minimum's, the core of both kernels; the
        # chunked scan, which only verify_bounds calls on its own M grid,
        # checks no M
        xs = np.sort(np.random.default_rng(0).random((2, K)), axis=1)
        cost = _width if kernel is pa_offsets else _reach
        with pytest.raises(ParameterError, match="M="):
            _window_min(xs, M, cost) if core else kernel(xs, M)

    def test_work_must_hold_a_column_of_floats(self):
        xs = np.sort(np.random.default_rng(0).random((4, 5)), axis=1)
        for work in (np.empty(3), np.empty((4, 2)), np.empty(8, np.float32)):
            for kernel in (lambda: _chunked(xs, 2, _width, work),
                           lambda: _chunked(xs, 2, _reach, work),
                           lambda: _smallest_abs(xs.copy(order="F"), 2, work)):
                with pytest.raises(ParameterError):
                    kernel()


def _abs_rows(K, rng):
    """29 sorted rows of K positions: continuous draws, then a coarse grid
    of ties and exact zeros, a third of which are -0.0, then rows all of one
    value."""
    rows = np.empty((29, K))
    rows[:10] = rng.uniform(-5.0, 5.0, (10, K))
    grid = np.floor(rng.uniform(-3.0, 3.0, (14, K))) / 2.0
    grid[(grid == 0.0) & (rng.random((14, K)) < 1 / 3)] = -0.0
    rows[10:24] = grid
    rows[24:] = np.array([0.0, -0.0, 1.5, -1.5, 2.0])[:, None]
    rows.sort(axis=1)
    return rows


class TestSmallestAbs:
    @pytest.mark.parametrize("K", [*range(1, 71), 200, 1000])
    def test_heads_are_the_sorted_abs(self, K):
        # every s, a power of two or not, s = K included: the s2 - K pads
        # of s2 > K, and every count of half-cleaners and merge stages.
        # Slabs of at most 13 columns split the merge's stages unevenly,
        # and the first 29 rows of a 32-row buffer are a strided batch,
        # which numpy copies but the selection still sorts.
        # At K = 1000 the s of one power-of-two class repeat each other's
        # ufunc calls, about 3000 each above 512, so only the first 70 s,
        # those within 2 of a power of two and the last 3 are taken
        rows = _abs_rows(K, np.random.default_rng(K))
        want = (np.sort(np.abs(rows), axis=1) + 0.0).view(np.int64)
        cols = np.empty((32, K), order="F")
        work = np.empty(29 * 13)
        heads = set(range(1, min(K, 70) + 1)) | {K - 2, K - 1, K}
        heads |= {p + e for p in (128, 256, 512) for e in range(-2, 3)}
        for s in sorted(heads & set(range(1, K + 1))):
            xs = cols[:29]
            xs[...] = rows
            assert _smallest_abs(xs, s, work) is xs
            assert np.array_equal((xs[:, :s] + 0.0).view(np.int64),
                                  want[:, :s]), s

    @pytest.mark.parametrize("K, s", [(3, 2), (7, 7), (40, 7), (200, 7)])
    def test_allocates_nothing(self, K, s):
        # on a Fortran-contiguous block; numpy's in-place ufuncs would copy
        # a strided one
        n = 4096
        rows = np.sort(np.random.default_rng(0).uniform(-5, 5, (n, K)), axis=1)
        xs, work = np.empty((n, K), order="F"), np.empty(n * 8)

        def select():
            xs[...] = rows
            _smallest_abs(xs, s, work)

        assert _peak_columns(select, n) < 0.1


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
