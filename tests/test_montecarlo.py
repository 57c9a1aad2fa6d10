"""Block trial runners: the RNG contract, CCDF shape, and bound verdicts."""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchfl import analytics, montecarlo
from pinchfl.errors import ParameterError
from pinchfl.participation import (DETERMINISTIC, SHIFTED_EXPONENTIAL,
                                   DeadlineModel)
from pinchfl.phy import PhyParams, upload_latency
from pinchfl.spatial import (GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec,
                             draw_positions)

PHY = PhyParams.from_snr_scale(1000.0, d=3.0, D=10.0, W=1e6, B_t=1e5)
UNI = DistributionSpec(kind=UNIFORM, D=10.0)
GM = DistributionSpec(kind=GAUSSIAN_MIXTURE, D=10.0, mu=3.0, sigma=0.5)
GRID = np.linspace(0.0, 0.2, 30)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any test that reaches a Monte Carlo draw."""
    def _streams(seed, K):
        raise AssertionError("drew trials before rejecting the input")
    monkeypatch.setattr(montecarlo, "_streams", _streams)


def _whole_draw(spec, K, trials, seed):
    """The run's positions as one (trials, K) draw from its streams, and its
    compute-time generator."""
    positions, normals, compute = montecarlo._streams(seed, K)
    return draw_positions(positions, spec, (trials, K), normals), compute


def _uniform(D):
    return DistributionSpec(kind=UNIFORM, D=D)


def _row_blocks(trials):
    """The row slices of the run's blocks."""
    rows = montecarlo._BLOCK_ROWS
    return [slice(r, r + rows) for r in range(0, trials, rows)]


def _peak_blocks(run, width):
    """Peak memory that ``run()`` allocates, in blocks of 512 rows of
    ``width`` doubles; numpy reports its buffers to tracemalloc.  A first,
    untraced call keeps one-time allocations (numpy's and the interpreter's
    caches) out, so the peak does not depend on which tests ran before."""
    run()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (512 * width * 8)


def _met_reference(grid, finish):
    """Per grid point, the total and the squared total of the row counts."""
    counts = [(finish <= g).sum(axis=1) for g in grid]
    return ([int(c.sum()) for c in counts],
            [int((c**2).sum()) for c in counts])


# few distinct values, so entries tie with each other and with grid points
TIES = np.array([-np.inf, 0.0, 0.25, 0.5, 0.75, 1.0, np.inf, np.nan])


class TestMetCounts:
    @pytest.mark.parametrize("n,w", [(1, 1), (1, 6), (60, 1), (45, 7)])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", ["mixed", "constant"])
    def test_matches_per_grid_reference(self, n, w, seed, rows):
        rng = np.random.default_rng(seed)
        if rows == "mixed":
            finish = np.where(rng.random((n, w)) < 0.6,
                              rng.choice(TIES, size=(n, w)),
                              rng.random((n, w)))
        else:
            finish = np.repeat(rng.choice(TIES, size=(n, 1)), w, axis=1)
        grid = np.sort(np.concatenate([
            rng.choice(TIES[:-1], size=5), [0.5, 0.5], rng.random(3),
        ]))
        if seed % 2:
            grid = np.append(grid, np.inf)
        want = _met_reference(grid, finish.copy())
        total, total_sq = montecarlo._met_counts(grid, finish)
        assert total.dtype == total_sq.dtype == np.int64
        assert total.shape == total_sq.shape == grid.shape
        assert (total.tolist(), total_sq.tolist()) == want


class TestBlocks:
    @settings(max_examples=100, deadline=None)
    @given(spec=st.sampled_from([UNI, GM]), trials=st.integers(1, 30),
           K=st.integers(1, 6), rows=st.integers(1, 8),
           chunk=st.none() | st.integers(1, 9), extra=st.integers(0, 9),
           seed=st.integers(0, 10_000))
    # fewer trials than one block, a whole number of blocks, one trial more
    # than a block, one user per row
    @example(spec=GM, trials=5, K=3, rows=8, chunk=None, extra=0, seed=1)
    @example(spec=GM, trials=12, K=3, rows=4, chunk=None, extra=0, seed=2)
    @example(spec=UNI, trials=12, K=3, rows=4, chunk=None, extra=5, seed=2)
    @example(spec=GM, trials=5, K=2, rows=4, chunk=None, extra=1, seed=3)
    @example(spec=GM, trials=9, K=1, rows=4, chunk=None, extra=0, seed=4)
    @example(spec=UNI, trials=3, K=1, rows=8, chunk=None, extra=0, seed=5)
    # row chunks that divide the block, that do not, of one row, and of
    # more rows than a block; the last block partial
    @example(spec=GM, trials=20, K=3, rows=8, chunk=4, extra=0, seed=6)
    @example(spec=UNI, trials=20, K=3, rows=8, chunk=4, extra=2, seed=6)
    @example(spec=GM, trials=20, K=3, rows=8, chunk=3, extra=0, seed=7)
    @example(spec=UNI, trials=20, K=3, rows=8, chunk=3, extra=0, seed=7)
    @example(spec=GM, trials=11, K=2, rows=4, chunk=1, extra=0, seed=8)
    @example(spec=GM, trials=11, K=2, rows=4, chunk=9, extra=3, seed=9)
    def test_blocks_are_one_whole_draw(self, spec, trials, K, rows, chunk,
                                       extra, seed):
        # a run's blocks are one draw, and the first rows of a longer run's;
        # each block, or each row chunk of one, is a view of one buffer, so
        # it is copied before the next is drawn
        want, _ = _whole_draw(spec, K, trials + extra, seed)
        buffer = None if chunk is None else np.empty((chunk, K))
        views, blocks = [], []
        with mock.patch.object(montecarlo, "_BLOCK_ROWS", rows):
            for block, compute in montecarlo._blocks(spec, K, trials, seed,
                                                     buffer):
                if buffer is None:
                    views.append(block)
                    blocks.append((block.copy(), compute))
                    continue
                starts, parts = [], []
                for r, xs in block:
                    starts.append(r)
                    views.append(xs)
                    parts.append(xs.copy())
                # full chunks from the block's first row, in order
                sizes = [len(xs) for xs in parts]
                assert starts == [i * chunk for i in range(len(parts))]
                assert sizes[:-1] == [chunk] * (len(sizes) - 1)
                assert 1 <= sizes[-1] <= chunk
                blocks.append((np.concatenate(parts), compute))
        # every block or chunk is drawn into one buffer, the caller's if given
        assert all(np.shares_memory(xs, views[0]) for xs in views)
        assert buffer is None or np.shares_memory(views[0], buffer)
        sizes = [len(xs) for xs, _ in blocks]
        assert sizes[:-1] == [rows] * (len(sizes) - 1)
        assert 1 <= sizes[-1] <= rows
        got = np.concatenate([xs for xs, _ in blocks])
        assert np.array_equal(got.view(np.int64),
                              want[:trials].view(np.int64))
        # one compute-time generator, which the position draws leave alone
        compute = blocks[0][1]
        assert all(c is compute for _, c in blocks)
        fresh = montecarlo._streams(seed, K)[2]
        assert compute.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    def test_streams_differ_by_k(self, spec):
        # K=3 is not the first columns, nor any values, of K=40
        few, _ = _whole_draw(spec, 3, 200, 0)
        many, _ = _whole_draw(spec, 40, 200, 0)
        assert not np.isin(few, many).any()
        words = [g.integers(0, 2**63, size=50)
                 for g in montecarlo._streams(0, 3)]
        assert len(np.unique(np.concatenate(words))) == 150

    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    def test_counts_do_not_depend_on_block_rows(self, monkeypatch, spec):
        K, M, trials, seed = 9, 3, 5000, 7
        # the latencies and finishing times of both modes and all sweeps
        # fall inside the grid
        grid = np.linspace(0.0, 0.07, 50)
        models = [DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC, t0=0.002),
                  DeadlineModel(T_d=0.0, fc_kind=SHIFTED_EXPONENTIAL,
                                t0=0.001, rate=300.0)]
        runs = {}
        for rows in (4096, 333):
            monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", rows)
            ccdfs = [s.ccdf.tolist() for mode in ("SFL", "AFL")
                     for s in montecarlo.estimate_ccdfs(
                         mode, ("CONV", "PA"), PHY, spec, K, M, trials,
                         grid, seed).values()]
            sweeps = [montecarlo.participation_sweep(K, grid, model, spec,
                                                     PHY, trials, seed)
                      for model in models]
            runs[rows] = ccdfs, sweeps
        assert runs[4096] == runs[333]
        # every CONV curve and sweep has counts strictly inside (0, trials)
        ccdfs, sweeps = runs[333]
        assert all(any(0 < p < 1 for p in c) for c in ccdfs[::2])
        assert all(any(0 < r["n_conv_mc"] < K for r in rows) for rows in sweeps)


class TestEstimateCcdf:
    def test_deterministic_rerun(self):
        a = montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 5000,
                                     GRID, seed=3)
        b = montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 5000,
                                     GRID, seed=3)
        assert np.array_equal(a.ccdf, b.ccdf)

    def test_ccdf_monotone_nonincreasing(self):
        s = montecarlo.estimate_ccdf("SFL", "PA", PHY, UNI, 20, 5, 5000,
                                     GRID, seed=1)
        assert np.all(np.diff(s.ccdf) <= 1e-12)
        assert np.all((0.0 <= s.ccdf) & (s.ccdf <= 1.0))

    def test_pa_dominates_conv_paired(self):
        kw = dict(phy=PHY, spec=UNI, K=20, M_or_model=5, trials=20_000,
                  grid=GRID, seed=9)
        conv = montecarlo.estimate_ccdf("SFL", "CONV", **kw)
        pa = montecarlo.estimate_ccdf("SFL", "PA", **kw)
        # same seed means the same position draws: dominance is exact
        assert np.all(pa.ccdf <= conv.ccdf + 1e-12)

    def test_afl_pa_is_degenerate(self):
        tau = PHY.c / np.log2(1.0 + PHY.S / PHY.d**2)
        grid = np.array([tau * 0.99, tau * 1.01])
        s = montecarlo.estimate_ccdf("AFL", "PA", PHY, UNI, 1, None, 1000,
                                     grid, seed=0)
        assert s.ccdf[0] == 1.0 and s.ccdf[1] == 0.0

    def test_rejects_bad_inputs(self, no_draws):
        with pytest.raises(ParameterError):
            montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 0,
                                     GRID, seed=0)
        with pytest.raises(ParameterError):
            montecarlo.estimate_ccdf("batch", "CONV", PHY, UNI, 20, 5, 10,
                                     GRID, seed=0)
        with pytest.raises(ParameterError):
            montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 10,
                                     GRID[::-1], seed=0)
        # K < 1 or not integral, and M outside [1, K] or not integral under
        # SFL, fail before any draw
        for mode, arch, K, M in [("SFL", "CONV", 20, 0), ("SFL", "PA", 20, 0),
                                 ("SFL", "CONV", 20, -1), ("SFL", "CONV", 20, 21),
                                 ("SFL", "PA", 20, 21), ("SFL", "CONV", 0, 1),
                                 ("SFL", "CONV", 20, 2.9), ("SFL", "PA", 4.5, 2),
                                 ("AFL", "CONV", 0, None), ("AFL", "CONV", 4.5, None)]:
            with pytest.raises(ParameterError):
                montecarlo.estimate_ccdf(mode, arch, PHY, UNI, K, M, 10, GRID,
                                         seed=0)

    def test_nan_grid_point_rejected(self, no_draws):
        for grid in ([np.nan], [0.01, np.nan], [np.nan, 0.01, 0.02]):
            with pytest.raises(ParameterError):
                montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 10,
                                         grid, seed=0)

    def test_inf_grid_point_is_valid(self):
        s = montecarlo.estimate_ccdf("SFL", "CONV", PHY, UNI, 20, 5, 100,
                                     [0.0, np.inf], seed=0)
        assert s.ccdf.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("mode", ["SFL", "AFL"])
    @pytest.mark.parametrize("arch", ["CONV", "PA"])
    def test_counts_match_pairwise_reference(self, monkeypatch, mode, arch):
        # several blocks, the last one partial
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 1000)
        trials, seed, K, M = 2500, 6, 12, 4
        afl_pa = upload_latency(PHY.B_t / PHY.W, 0.0, 0.0, PHY.S, PHY.d)
        grid = np.sort(np.concatenate([GRID, [afl_pa, afl_pa]]))
        s = montecarlo.estimate_ccdf(mode, arch, PHY, UNI, K, M, trials, grid,
                                     seed=seed)
        lat = _fresh_latencies(mode, arch, UNI, K, M, trials, seed)
        exceed = (lat[:, None] > grid[None, :]).sum(axis=0)
        assert np.array_equal(s.ccdf, exceed / trials)


def _fresh_latencies(mode, arch, spec, K, M, trials, seed):
    """Every trial's latency, from one whole draw: under AFL one user's
    |x|, or the pinned link; under SFL the CONV offset from the sorted |x|
    and the PA offset from the full array of window spans of a sorted copy."""
    if mode == "AFL":
        if arch == "PA":
            return np.full(trials, upload_latency(PHY.c, 0.0, 0.0, PHY.S,
                                                  PHY.d))
        xs, _ = _whole_draw(spec, 1, trials, seed)
        return upload_latency(PHY.c, xs[:, 0], 0.0, PHY.S, PHY.d)
    xs, _ = _whole_draw(spec, K, trials, seed)
    if arch == "CONV":
        offset = np.sort(np.abs(xs), axis=1)[:, M - 1]
    else:
        srt = np.sort(xs, axis=1)
        offset = (srt[:, M - 1:] - srt[:, :K - M + 1]).min(axis=1) / 2
    return upload_latency(PHY.c_round(M), offset, 0.0, PHY.S, PHY.d)


class TestEstimateCcdfs:
    @pytest.mark.parametrize("mode", ["SFL", "AFL"])
    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    @pytest.mark.parametrize("M", [1, 11])
    def test_paired_equals_single_and_fresh_draws(self, monkeypatch, mode,
                                                  spec, M):
        # three full blocks of 4096 rows and a partial one; a grid point at
        # every reference latency makes any wrong or stale row change a count
        K, trials, seed = 11, 14000, 4
        ref = {arch: _fresh_latencies(mode, arch, spec, K, M, trials, seed)
               for arch in ("CONV", "PA")}
        grid = np.sort(np.concatenate(list(ref.values())))
        paired = montecarlo.estimate_ccdfs(mode, ("CONV", "PA"), PHY, spec, K,
                                           M, trials, grid, seed)
        assert list(paired) == ["CONV", "PA"]
        for arch, lat in ref.items():
            single = montecarlo.estimate_ccdf(mode, arch, PHY, spec, K, M,
                                              trials, grid, seed)
            assert np.array_equal(paired[arch].ccdf, single.ccdf)
            met = np.searchsorted(np.sort(lat), grid, side="right")
            assert np.array_equal(paired[arch].ccdf, (trials - met) / trials)
            assert paired[arch].trials == trials and paired[arch].seed == seed

    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    def test_many_row_blocks_match_fresh_draws(self, monkeypatch, spec):
        # six full blocks of 256 rows and a partial one; a grid point at
        # every reference latency makes any wrong row change a count
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 256)
        K, M, trials, seed = 9, 3, 1600, 8
        ref = {arch: _fresh_latencies("SFL", arch, spec, K, M, trials, seed)
               for arch in ("CONV", "PA")}
        grid = np.sort(np.concatenate(list(ref.values())))
        got = montecarlo.estimate_ccdfs("SFL", ("CONV", "PA"), PHY, spec, K,
                                        M, trials, grid, seed)
        for arch, lat in ref.items():
            met = np.searchsorted(np.sort(lat), grid, side="right")
            assert np.array_equal(got[arch].ccdf, (trials - met) / trials)

    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    @pytest.mark.parametrize("mode", ["SFL", "AFL"])
    def test_peak_memory_is_a_few_blocks(self, monkeypatch, mode, spec):
        # 20000 trials are 40 blocks, the last one partial; an array of one
        # value per trial would be 4 blocks of 10 users, or 40 of one user,
        # the one position an AFL trial draws.  An SFL run holds one block
        # buffer, and a mixture draw its coin mask and one numpy cast buffer
        # of at most a block.  An AFL block is one (b,) column, as is each
        # temporary of the offset kernels, so those set its peak; at K = M = 1
        # they allocate no scratch column
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 512)
        K, M = 10, 3
        bound = 5 if mode == "AFL" else 2 if spec is UNI else 3
        assert _peak_blocks(lambda: montecarlo.estimate_ccdfs(
            mode, ("CONV", "PA"), PHY, spec, K, M, 20_000, GRID, seed=0),
            K if mode == "SFL" else 1) < bound

    def test_rejects_bad_archs(self, no_draws):
        for archs in [(), ["CONV", "CONV"], ("PA", "CONV", "PA"), ("BEAM",),
                      ("CONV", "beam"), "CONV"]:
            with pytest.raises(ParameterError):
                montecarlo.estimate_ccdfs("SFL", archs, PHY, UNI, 20, 5, 10,
                                          GRID, seed=0)
        with pytest.raises(ParameterError):
            montecarlo.estimate_ccdf("AFL", "BEAM", PHY, UNI, 20, None, 10,
                                     GRID, seed=0)


def _runners(trials):
    """Every Monte Carlo runner at ``trials`` on a small problem, uncalled."""
    model = DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC)
    return [
        lambda: montecarlo.verify_bounds([3], [2], 10.0, trials, seed=0),
        lambda: montecarlo.estimate_ccdfs("SFL", ("CONV", "PA"), PHY, GM, 3,
                                          2, trials, GRID, seed=0),
        lambda: montecarlo.estimate_ccdf("AFL", "CONV", PHY, UNI, 3, None,
                                         trials, GRID, seed=0),
        lambda: montecarlo.participation_sweep(3, [0.01, 0.02], model, UNI,
                                               PHY, trials, seed=0),
    ]


class TestTrialCounts:
    def test_rejects_non_integral_trials(self, no_draws):
        for trials in (150000.5, float("nan"), float("inf"), 0, -3):
            for run in _runners(trials):
                with pytest.raises(ParameterError,
                                   match=re.escape(f"trials={trials}:")):
                    run()

    @pytest.mark.parametrize("trials", [2.0, 1600.0])
    def test_integral_float_trials_is_an_int(self, monkeypatch, trials):
        # 1600 trials in blocks of 700 end in a partial block, whose size a
        # float count would make a float
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 700)
        for run, run_int in zip(_runners(trials), _runners(int(trials))):
            assert repr(run()) == repr(run_int())


class TestVerifyBounds:
    def test_small_grid_all_pass(self):
        verdicts = montecarlo.verify_bounds([10, 20], [2, 5], 10.0,
                                            trials=40_000, seed=2)
        names = {v.name for v in verdicts}
        assert any("ordering" in n for n in names)
        assert any("min-spacing" in n for n in names)
        assert all(v.passed for v in verdicts), [
            (v.name, v.analytic, v.empirical) for v in verdicts if not v.passed
        ]

    def test_skips_m_above_k(self):
        verdicts = montecarlo.verify_bounds([3], [2, 7], 10.0, trials=5000,
                                            seed=0)
        assert not any("M=7" in v.name for v in verdicts)

    def test_rejects_bad_inputs(self, no_draws):
        for K_grid, M_grid, trials in [([5], [2], 0), ([5, 0], [1], 10),
                                       ([5], [2, -1], 10), ([10], [2.9], 10),
                                       ([10.5], [2], 10), ([10, 4.5], [2], 10)]:
            with pytest.raises(ParameterError):
                montecarlo.verify_bounds(K_grid, M_grid, 10.0, trials=trials,
                                         seed=0)

    def test_rejects_bad_corridor(self, no_draws):
        for D in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
            with pytest.raises(ParameterError):
                montecarlo.verify_bounds([3], [2], D, trials=100, seed=0)

    def test_rejects_bad_eps(self, no_draws):
        # a NaN or non-positive eps would drop every tail verdict silently
        for eps in (float("nan"), float("inf"), -float("inf"), 0.0, -0.1):
            with pytest.raises(ParameterError):
                montecarlo.verify_bounds([3], [2], 10.0, trials=100, seed=0,
                                         eps=eps)

    def test_peak_memory_is_a_few_blocks(self, monkeypatch):
        # 20000 trials are 40 blocks, the last one partial; an array of one
        # value per trial would be 4 blocks.  The run holds its column block
        # and a workspace of 512 * 8 values, 0.8 of a block at K = 10
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 512)
        K = 10
        assert _peak_blocks(lambda: montecarlo.verify_bounds(
            [K], [2, 5, 7], 10.0, trials=20_000, seed=0), K) < 3

    @pytest.mark.parametrize("K_grid", [[10, 10], [20, 10]],
                             ids=["10-10", "20-10"])
    def test_peak_memory_is_a_few_blocks_of_one_k(self, monkeypatch, K_grid):
        # each K releases its column block and its workspace before the
        # next K allocates its own, so the peak is that of the widest K alone
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 512)
        assert _peak_blocks(lambda: montecarlo.verify_bounds(
            K_grid, [2, 5, 7], 10.0, trials=20_000, seed=0), max(K_grid)) < 3

    @pytest.mark.parametrize("K,bound", [(40, 1.6), (200, 1.25)])
    def test_peak_memory_is_one_column_block(self, monkeypatch, K, bound):
        # the column block, the workspace of 512 * 8 values (a fifth of a
        # block at K = 40, a 25th at K = 200) and a few columns of
        # temporaries; a C-order copy of the block would add a whole block
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 512)
        assert _peak_blocks(lambda: montecarlo.verify_bounds(
            [K], [2, 5, 7], 10.0, trials=20_000, seed=0), K) < bound

    # the workspace holds 800 values: row chunks longer than a block (K = 1,
    # 3), of exactly a block (8), that do not divide it (9) or do (40), and
    # of one row, as K = 1000 exceeds the workspace
    @pytest.mark.parametrize("K", [1, 3, 8, 9, 40, 1000])
    def test_scanned_columns_are_the_sorted_draw(self, monkeypatch, K):
        # 250 trials: two blocks of 100 rows and a partial one
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 100)
        seen = []
        min_spacing = montecarlo._min_spacing

        def spy(sorted_xs, half2, D, work):
            # one contiguous column per order statistic
            assert sorted_xs.strides[0] == sorted_xs.itemsize
            assert not np.shares_memory(sorted_xs, work)
            seen.append(sorted_xs.copy())
            return min_spacing(sorted_xs, half2, D, work)

        monkeypatch.setattr(montecarlo, "_min_spacing", spy)
        montecarlo.verify_bounds([K], [2, 5], 10.0, 250, 6)
        assert [len(xs) for xs in seen] == [100, 100, 50]
        want = np.sort(_whole_draw(_uniform(10.0), K, 250, 6)[0], axis=1)
        assert np.array_equal(np.concatenate(seen).view(np.int64),
                              want.view(np.int64))

    def test_matches_row_major_reference(self, monkeypatch):
        # several blocks, the last one partial
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 700)
        K_grid, M_grid = [1, 2, 3, 10], [1, 2, 5, 7]
        D, trials, seed = 10.0, 1600, 5
        verdicts = montecarlo.verify_bounds(K_grid, M_grid, D, trials, seed)
        ref = _row_major_reference(K_grid, M_grid, D, trials, seed, eps=0.1)
        got = {v.name: (v.empirical, v.std_error) for v in verdicts}
        assert len(got) == len(verdicts)
        assert {n for n in ref if "hoeffding" not in n} <= set(got) <= set(ref)
        for name, value in got.items():
            assert value == ref[name], name

    @pytest.mark.parametrize("K", [1, 2, 10])
    def test_min_spacing_does_not_depend_on_the_m_grid(self, monkeypatch, K):
        # the interior gaps are scanned once per block whatever the M grid,
        # and the spacing is taken before the M loop squares PA at M=2
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 700)
        name = f"K={K} min-spacing E[M*^2]"
        verdicts = {repr([v for v in montecarlo.verify_bounds(
            [K], M_grid, 10.0, 1600, 2) if v.name == name])
            for M_grid in ([2, 5, 7], [5, 7], [7], [1])}
        assert len(verdicts) == 1 and name in verdicts.pop()

    def test_reused_buffers_match_fresh_draws(self, monkeypatch):
        # three blocks, the last one partial: a stale row of the reused
        # column buffer, or a wrong slice of it, changes a verdict
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 700)
        args = ([1, 3, 10], [1, 2, 5], 10.0, 1600, 3)
        assert (repr(montecarlo.verify_bounds(*args))
                == repr(_fresh_draw_reference(*args, eps=0.1)))

    @pytest.mark.parametrize("trials", [1600, 200])
    def test_row_blocks_match_fresh_draws(self, monkeypatch, trials):
        # 1600 trials: six full blocks of 256 rows and a partial one; 200
        # trials: fewer trials than one block
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 256)
        args = ([1, 3, 10, 40], [1, 2, 5, 7], 10.0, trials, 4)
        assert (repr(montecarlo.verify_bounds(*args))
                == repr(_fresh_draw_reference(*args, eps=0.1)))


def _spacings(xs, D):
    """The K+1 spacings of sorted rows of positions on [-D/2, D/2], edge
    gaps included, as the gaps of [-D/2, *x, D/2] over D: a (n, K+1)
    array."""
    edges = np.full((len(xs), 1), D / 2.0)
    return np.diff(np.hstack([-edges, xs, edges]), axis=1) / D


def _fresh_draw_reference(K_grid, M_grid, D, trials, seed, eps):
    """Every verdict of ``verify_bounds``, from a fresh (n, K) draw per
    K, |x| sorted apart from the rows, and the window spans and the
    spacings built in full before their minima are taken; the moments add
    up block by block, as in ``verify_bounds``."""
    verdicts = []
    for K in K_grid:
        Ms = [M for M in M_grid if M <= K]
        conv, pa, tail, span = ({M: montecarlo._Moment() for M in Ms}
                                for _ in range(4))
        minspace = montecarlo._Moment()
        violations = 0
        whole = np.sort(_whole_draw(_uniform(D), K, trials, seed)[0], axis=1)
        for rows in _row_blocks(trials):
            xs = whole[rows]
            abs_sorted = np.sort(np.abs(xs), axis=1)
            for M in Ms:
                y = abs_sorted[:, M - 1]
                half = (xs[:, M - 1:] - xs[:, :K - M + 1]).min(axis=1) / 2.0
                conv[M].add(y**2)
                pa[M].add(half**2)
                violations += int(np.sum(half > y + 1e-12))
                tail[M].add((np.abs(y / (D / 2.0) - M / (K + 1)) >= eps)
                            .astype(float))
                span[M].add((xs[:, M - 1] - xs[:, 0]) / D)
            minspace.add(_spacings(xs, D).min(axis=1) ** 2)
        verdicts.append(montecarlo.BoundVerdict(
            f"K={K} ordering pa<=conv", 0.0, float(violations), 0.0,
            violations == 0, "exact"))
        ms = analytics.min_spacing_second_moment(K)
        verdicts.append(montecarlo.BoundVerdict(
            f"K={K} min-spacing E[M*^2]", ms, minspace.mean,
            minspace.std_error,
            abs(minspace.mean - ms) <= 3.0 * minspace.std_error))
        for M in Ms:
            rep = analytics.straggler_moments(K, M, D)
            cm, pm, th, sm = conv[M], pa[M], tail[M], span[M]
            key = f"K={K} M={M}"
            verdicts += [
                montecarlo.BoundVerdict(
                    f"{key} conv E[Y^2]", rep.conv_E2, cm.mean, cm.std_error,
                    abs(cm.mean - rep.conv_E2) <= 3.0 * cm.std_error),
                montecarlo.BoundVerdict(
                    f"{key} pa upper", rep.pa_ub, pm.mean, pm.std_error,
                    pm.mean <= rep.pa_ub + 3.0 * pm.std_error, "upper"),
                montecarlo.BoundVerdict(
                    f"{key} pa lower", rep.pa_lb, pm.mean, pm.std_error,
                    pm.mean >= rep.pa_lb - 3.0 * pm.std_error, "lower"),
            ]
            if 0 < eps < min(M / (K + 1), 1.0 - M / (K + 1)):
                bound = analytics.hoeffding_tail(K, eps)
                verdicts.append(montecarlo.BoundVerdict(
                    f"{key} hoeffding tail", bound, th.mean, th.std_error,
                    th.mean <= bound + 3.0 * th.std_error, "upper"))
            if M >= 2:
                verdicts.append(montecarlo.BoundVerdict(
                    f"{key} span mean", (M - 1) / (K + 1), sm.mean,
                    sm.std_error,
                    abs(sm.mean - (M - 1) / (K + 1)) <= 3.0 * sm.std_error))
    return verdicts


def _row_major_reference(K_grid, M_grid, D, trials, seed, eps):
    """Empirical value and standard error of every verdict, from a per-trial
    row-major loop over one whole draw per K: |x| re-sorted, all K+1
    spacings stacked as columns, and each PA window found by argmin before
    its span is read; the moments add up block by block."""
    ref = {}
    for K in K_grid:
        Ms = [M for M in M_grid if M <= K]
        conv, pa, tail, span = ({M: montecarlo._Moment() for M in Ms}
                                for _ in range(4))
        minspace = montecarlo._Moment()
        violations = 0
        whole = np.sort(_whole_draw(_uniform(D), K, trials, seed)[0], axis=1)
        for rows in _row_blocks(trials):
            xs = whole[rows]
            n = len(xs)
            abs_sorted = np.sort(np.abs(xs), axis=1)
            minspace.add(_spacings(xs, D).min(axis=1) ** 2)
            for M in Ms:
                y = abs_sorted[:, M - 1]
                spans = xs[:, M - 1:] - xs[:, : K - M + 1]
                half = spans[np.arange(n), spans.argmin(axis=1)] / 2.0
                conv[M].add(y**2)
                pa[M].add(half**2)
                violations += int(np.sum(half > y + 1e-12))
                tail[M].add((np.abs(y / (D / 2.0) - M / (K + 1)) >= eps)
                            .astype(float))
                span[M].add((xs[:, M - 1] - xs[:, 0]) / D)
        ref[f"K={K} ordering pa<=conv"] = (float(violations), 0.0)
        ref[f"K={K} min-spacing E[M*^2]"] = (minspace.mean, minspace.std_error)
        for M in Ms:
            key = f"K={K} M={M}"
            ref[f"{key} conv E[Y^2]"] = (conv[M].mean, conv[M].std_error)
            ref[f"{key} pa upper"] = ref[f"{key} pa lower"] = (pa[M].mean,
                                                              pa[M].std_error)
            ref[f"{key} hoeffding tail"] = (tail[M].mean, tail[M].std_error)
            if M >= 2:
                ref[f"{key} span mean"] = (span[M].mean, span[M].std_error)
    return ref


class TestParticipationSweep:
    @settings(max_examples=50, deadline=None)
    @given(rate=st.floats(1e-3, 1e6), n=st.integers(1, 50),
           K=st.integers(1, 9), seed=st.integers(0, 10_000))
    def test_scaled_standard_exponential_is_exponential(self, rate, n, K,
                                                        seed):
        # the sweep writes compute times into its buffer as a standard draw
        # times 1/rate; numpy's exponential(scale) is scale times that draw
        want = np.random.default_rng(seed).exponential(1.0 / rate, (n, K))
        got = np.random.default_rng(seed).standard_exponential(
            out=np.empty((n, K)))
        got *= 1.0 / rate
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_mc_matches_closed_form(self):
        model = DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC)
        tau_min = PHY.c / np.log2(1.0 + PHY.S / PHY.d**2)
        tau_max = PHY.c / np.log2(1.0 + PHY.S / (PHY.d**2 + 25.0))
        grid = np.linspace(tau_min, 1.05 * tau_max, 8)
        rows = montecarlo.participation_sweep(20, grid, model, UNI, PHY,
                                              trials=20_000, seed=4)
        for row in rows:
            tol = 3.0 * row["conv_stderr"] + 1e-6
            assert abs(row["n_conv_mc"] - row["n_conv"]) <= tol
            assert row["n_pa_mc"] == pytest.approx(row["n_pa"], abs=1e-9)
            assert row["gap"] >= -1e-9

    def test_rejects_bad_inputs(self, no_draws):
        model = DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC)
        with pytest.raises(ParameterError):
            montecarlo.participation_sweep(5, [0.01, 0.02], model, UNI, PHY,
                                           trials=0, seed=0)
        with pytest.raises(ParameterError):
            montecarlo.participation_sweep(5, [0.02, 0.01], model, UNI, PHY,
                                           trials=10, seed=0)
        for K in (0, 4.5):
            with pytest.raises(ParameterError):
                montecarlo.participation_sweep(K, [0.01, 0.02], model, UNI,
                                               PHY, trials=10, seed=0)

    def test_negative_deadline_rejected(self, no_draws):
        model = DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC)
        for grid in ([-0.01], [-0.01, 0.02], [-np.inf, 0.0]):
            with pytest.raises(ParameterError, match="nonnegative"):
                montecarlo.participation_sweep(5, grid, model, UNI, PHY,
                                               trials=10, seed=0)

    def test_nan_deadline_rejected(self, no_draws):
        # an inf deadline, valid on a CCDF grid, has no coverage radius
        model = DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC)
        for grid in ([np.nan], [0.01, np.nan], [np.inf], [0.01, np.inf]):
            with pytest.raises(ParameterError):
                montecarlo.participation_sweep(5, grid, model, UNI, PHY,
                                               trials=10, seed=0)

    @pytest.mark.parametrize("spec", [UNI, GM], ids=["uniform", "gm"])
    @pytest.mark.parametrize("model", [
        DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC, t0=0.002),
        DeadlineModel(T_d=0.0, fc_kind=SHIFTED_EXPONENTIAL, t0=0.001,
                      rate=300.0),
    ], ids=["deterministic", "shifted_exp"])
    def test_common_draws_match_per_deadline_reference(self, monkeypatch,
                                                       spec, model):
        # six full blocks of 256 rows and a partial one
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 256)
        K, trials, seed = 9, 1600, 3
        tau_pa = upload_latency(PHY.c, 0.0, 0.0, PHY.S, PHY.d)
        pinned = model.t0 + tau_pa
        # the closed-form PA count under deterministic compute steps at
        # pinned: the grid holds it and the double just below it
        grid = np.sort(np.concatenate([
            np.linspace(0.9 * pinned, pinned + 0.02, 7),
            [np.nextafter(pinned, 0), pinned, pinned],
        ]))
        rows = montecarlo.participation_sweep(K, grid, model, spec, PHY,
                                              trials, seed)
        conv = [montecarlo._Moment() for _ in grid]
        pa = [montecarlo._Moment() for _ in grid]
        xs, compute = _whole_draw(spec, K, trials, seed)
        tau_conv = upload_latency(PHY.c, xs, 0.0, PHY.S, PHY.d)
        if model.fc_kind == DETERMINISTIC:
            T_c = np.full((trials, K), model.t0)
        else:
            T_c = model.t0 + compute.exponential(1.0 / model.rate,
                                                 size=(trials, K))
        for j, T_d in enumerate(grid):
            conv[j].add((T_c + tau_conv <= T_d).sum(axis=1))
            pa[j].add((T_c + tau_pa <= T_d).sum(axis=1))
        got = [(r["n_conv_mc"], r["n_pa_mc"], r["conv_stderr"], r["pa_stderr"])
               for r in rows]
        want = [(c.mean, p.mean, c.std_error, p.std_error)
                for c, p in zip(conv, pa)]
        assert got == want
        # the grid straddles the earliest PA finishing time
        assert rows[0]["n_pa_mc"] == 0 < rows[-1]["n_pa_mc"]

    @pytest.mark.parametrize("spec,K", [(UNI, 40), (GM, 40), (UNI, 200),
                                        (GM, 200)],
                             ids=["uniform", "gm", "uniform-K200", "gm-K200"])
    @pytest.mark.parametrize("model", [
        DeadlineModel(T_d=0.0, fc_kind=DETERMINISTIC),
        DeadlineModel(T_d=0.0, fc_kind=SHIFTED_EXPONENTIAL, t0=0.001,
                      rate=300.0),
    ], ids=["deterministic", "shifted_exp"])
    def test_peak_memory_is_a_few_blocks(self, monkeypatch, spec, model, K):
        # 20000 trials are 40 blocks, the last one partial.  The run holds
        # one block buffer of positions, latencies and CONV finishing times,
        # and under exponential compute one of compute times and PA
        # finishing times
        monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", 512)
        buffers = 1 if model.fc_kind == DETERMINISTIC else 2
        assert _peak_blocks(lambda: montecarlo.participation_sweep(
            K, np.linspace(0.0, 0.2, 50), model, spec, PHY, trials=20_000,
            seed=0), K) < buffers + 1
