"""Trial runners that confront the closed forms with empirical draws.

One RNG contract serves every runner: a run at K users draws from three
generators spawned from ``SeedSequence([seed, K])``, one for the uniforms
and mixture coins of the positions, one for the mixture's normals and one
for compute times.  ``_blocks`` draws each stream in order, into the
caller's buffer, one chunk of its rows at a time, so a run's trials are the
same bits whatever the chunk size, and a run is a prefix of any longer run
at the same (seed, K).  ``estimate_ccdfs`` and ``participation_sweep`` lend
it a block buffer of ``_BLOCK_ROWS`` rows and overwrite each block with
offsets or finishing times, which ``_met_counts`` counts from a copy of at
most a quarter of the block's columns, so the memory of a run is a few
blocks whatever its trial count.  ``verify_bounds`` holds one block, its
column-major copy, and a workspace that does not grow with K: it lends
``_blocks`` the workspace's scan region of ``_BLOCK_ROWS * _SCAN_COLS``
floats as chunks of rows that divide the block, and copies each chunk into
its rows of the column block.  Above ``_NETWORK_K`` each chunk's rows are
sorted before the copy; at K up to it the full block's columns are sorted
by one compare-exchange network, ``_merge_exchange(K)``, which skips the
row sort's fixed cost per row.  The window scans write their minima into
columns of the workspace, so the loop allocates nothing per block, and
both buffers start on a cache line (``_aligned``).
Acceptance convention (``_verdict``): two-sided checks pass within three
standard errors; one-sided bounds get that slack on their own side.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, NamedTuple

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; pay that at import

from . import analytics
from .errors import ParameterError
from .participation import (DETERMINISTIC, DeadlineModel, check_deadline,
                            expected_participants)
from .phy import PhyParams, latency_inverse, upload_latency
from .spatial import (UNIFORM, DistributionSpec, _min_spacing, _reach,
                      _scan_windows, _width, bottlenecks, draw_positions)

# rows per block: a block of (_BLOCK_ROWS, K) positions stays in cache while
# the SFL CCDF sorts its rows and scans its windows, one column per window
# of its C-order rows, while verify_bounds sorts and scans the columns it
# copied the block's row chunks into, and while participation_sweep turns it
# into offsets or finishing times in place and counts them per deadline;
# a run allocates its block buffers once, at min(_BLOCK_ROWS, trials) rows
_BLOCK_ROWS = 4096
# windows per chunk of verify_bounds' scans: a (_BLOCK_ROWS, _SCAN_COLS)
# chunk of costs, 256 KB, stays in L2 beside the block's column buffer.
# The same workspace, which does not grow with K, first takes the block's
# draws, in the largest chunks of rows that divide the block and fit in it.
# _met_counts sorts a block's order statistics in chunks of as many columns
_SCAN_COLS = 8
# the largest K at which verify_bounds sorts a block by the compare-exchange
# network on its columns rather than each row chunk by ndarray.sort.  A row
# sort pays a fixed cost per row, most of its time at small K, while the
# network's comparators grow as K log2(K)**2 / 4, three ufunc calls over a
# column each.  A verify_bounds run at one K took, with the network, 0.54
# of its time with row sorts at K = 3, 0.92 at K = 10 and 0.86 at K = 11,
# but 1.07 at K = 12 and 1.3 at K = 16 (medians of 9 interleaved pairs).
# On the aligned workspace it took 0.98 at K = 12 and 13, 1.0 at 14 and
# 1.21 at 16: past 11 the network gains too little to tell
_NETWORK_K = 11


def _streams(seed: int, K: int):
    """The three generators of a run at K users: position uniforms and
    mixture coins, mixture normals, compute times."""
    children = np.random.SeedSequence([seed, K]).spawn(3)
    return [np.random.default_rng(child) for child in children]


def _blocks(spec: DistributionSpec, K: int, trials: int, seed: int,
            out: np.ndarray):
    """Yield the run's positions as consecutive chunks of ``len(out)`` rows,
    the last one shorter, each with the run's compute-time generator.

    ``out`` is a C-order (c, K) float array of the caller, and every chunk is
    drawn into its first rows: a chunk is valid only until the next one is
    drawn, and the caller may overwrite it.  Each stream is drawn in order,
    so the chunks are the same bits as one whole draw.
    """
    positions, normals, compute = _streams(seed, K)
    for r in range(0, trials, len(out)):
        xs = out[:min(len(out), trials - r)]
        draw_positions(positions, spec, xs.shape, normals, out=xs)
        yield xs, compute


def _aligned(size: int) -> np.ndarray:
    """An uninitialised flat float buffer of ``size`` values whose first
    value starts a 64-byte cache line.  numpy's buffers start wherever
    malloc puts them, often 16, 32 or 48 bytes into a line, and a ufunc
    writing columns that start mid-line splits its vector stores across
    lines: at K = 40, verify_bounds took 10-25% more time with its scan
    region misaligned than aligned."""
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size]


def _trial_count(trials) -> int:
    """``int(trials)`` of an integral count >= 1; else ParameterError."""
    if not (trials >= 1 and float(trials).is_integer()):
        raise ParameterError(f"trials={trials}: need an integer >= 1")
    return int(trials)


def _ascending(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    # the diff of a one-point grid is empty, so NaN is rejected by name;
    # inf points are valid
    if grid.ndim != 1 or np.isnan(grid).any() or not np.all(np.diff(grid) >= 0):
        raise ParameterError("grid must be one-dimensional, ascending and "
                             "free of NaN")
    return grid


def _met_counts(grid: np.ndarray, finish: np.ndarray):
    """Over the rows of ``finish`` (n, w), the total and the squared total of
    the counts of entries <= each point of ``grid`` (G,), in any order: two
    (G,) int64 arrays.  Sorts the rows of ``finish``, a buffer the caller
    owns, in place, and its columns too where each is contiguous.

    Sorted rows make column k every row's (k+1)-th finishing time; sorted
    columns let one ``searchsorted`` count A[k, g], the rows with at least
    k+1 entries <= grid[g].  A row's count N is sum_k [N > k] and N**2 is
    sum_k (2k+1) [N > k], so both totals are exact.  NaN sorts last and
    meets no point; ``inf`` meets only an ``inf`` point.

    Each column is sorted and searched while contiguous: in place where it
    already is (one column, a CCDF's offsets, Fortran order), else copied,
    with its neighbours, into a C-order buffer of ``_SCAN_COLS`` columns, or
    of w // 4 (at least one) where that is fewer: at small w a wider buffer
    would be a second block.
    """
    finish.sort(axis=1)
    n, w = finish.shape
    met = np.empty((w, grid.size), dtype=np.int64)
    in_place = finish.flags.f_contiguous
    step = max(w if in_place else min(_SCAN_COLS, w // 4), 1)
    buf = None if in_place else np.empty((step, n))
    for j in range(0, w, step):
        cols = finish.T[j:j + step]
        if buf is not None:
            buf[:len(cols)] = cols
            cols = buf[:len(cols)]
        cols.sort(axis=1)
        for k, col in enumerate(cols, j):
            met[k] = np.searchsorted(col, grid, side="right")
    return met.sum(axis=0), (2 * np.arange(w) + 1) @ met


@functools.lru_cache(maxsize=None)
def _merge_exchange(K: int) -> tuple:
    """The comparators (i, j), i < j, of Batcher's merge-exchange network on
    K keys (Knuth, TAOCP vol. 3, 5.2.2, Algorithm M): applied in order, each
    leaving the smaller of keys i and j at i, they sort any K keys."""
    pairs = []
    # t = ceil(log2 K): p, q run over the powers of two below 2**t
    t = (K - 1).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs += [(i, i + d) for i in range(K - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


def _sort_columns(xs: np.ndarray, tmp: np.ndarray):
    """Sort the rows of ``xs``, an (n, K) float array with contiguous
    columns, in place by ``_merge_exchange(K)`` over its columns; ``tmp`` is
    a buffer of n floats.  Each comparator writes its two columns' minimum
    and maximum, so a row free of NaN ends with the bits of its
    ``np.sort``, but for the signs of equal zeros."""
    cols = xs.T
    for i, j in _merge_exchange(xs.shape[1]):
        a, b = cols[i], cols[j]
        np.minimum(a, b, out=tmp)
        np.maximum(a, b, out=b)
        a[...] = tmp


class _Moment:
    """Streaming mean and standard error of a scalar statistic.

    It may start from the count, sum and sum of squares of values already
    accumulated elsewhere.
    """

    def __init__(self, n: int = 0, total: float = 0.0, total_sq: float = 0.0):
        self.n = n
        self.total = total
        self.total_sq = total_sq

    def add(self, values: np.ndarray, buf: np.ndarray):
        """Add a 1-D float array of values; their squares are written to
        ``buf``, the caller's buffer of as many floats."""
        self.n += values.size
        self.total += float(np.add.reduce(values))
        self.total_sq += float(np.add.reduce(np.square(values, out=buf)))

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def std_error(self) -> float:
        var = max(self.total_sq / self.n - self.mean**2, 0.0)
        return math.sqrt(var / self.n)


class BoundVerdict(NamedTuple):
    """Outcome of one analytic-vs-empirical confrontation."""

    name: str
    analytic: float
    empirical: float
    std_error: float
    passed: bool
    kind: str = "two_sided"


def _verdict(name: str, analytic: float, stat: _Moment,
             kind: str = "two_sided") -> BoundVerdict:
    """The verdict on ``stat``'s mean against ``analytic``: it passes within
    three standard errors, on both sides, or on the bound's own side for an
    ``upper`` or ``lower`` bound."""
    mean, slack = stat.mean, 3.0 * stat.std_error
    passed = (mean <= analytic + slack if kind == "upper" else
              mean >= analytic - slack if kind == "lower" else
              abs(mean - analytic) <= slack)
    return BoundVerdict(name, analytic, mean, stat.std_error, passed, kind)


def estimate_ccdfs(archs, phy: PhyParams, spec: DistributionSpec, K: int, M,
                   trials: int, grid, seed: int) -> Dict[str, np.ndarray]:
    """Empirical CCDF of the round latency of each architecture in
    ``archs``, M of K users per round: by architecture, the exceedance
    probability at each point of the ascending ``grid``.  An AFL upload is
    the round of one user, K = M = 1.

    Every architecture scores the same position draws, each block drawn and
    sorted once, so no curve depends, bit for bit, on the others.  A latency
    exceeds t where its offset exceeds rho(t), the inverse latency: offsets
    are counted against rho of the grid, and PA's curve is at most CONV's.
    """
    grid = _ascending(grid)
    trials = _trial_count(trials)
    archs = tuple(archs)
    if not 0 < len(archs) == len(set(archs)):
        raise ParameterError(f"need distinct architectures, got {archs!r}")
    K, M = analytics.check_order(K, M)
    block = np.empty((min(_BLOCK_ROWS, trials), K))
    for arch in archs:
        # an unknown architecture fails on no rows, before any draw
        bottlenecks(block[:0], M, arch)
    # a dead link fails here, at tau(0), before any draw
    rho = latency_inverse(phy.c_round(M), grid, phy.S, phy.d)
    exceed = {arch: np.zeros(grid.size, dtype=np.int64) for arch in archs}
    for xs, _ in _blocks(spec, K, trials, seed, block):
        xs.sort(axis=1)
        for arch in archs:
            offsets = bottlenecks(xs, M, arch)
            exceed[arch] += len(xs) - _met_counts(rho, offsets[:, None])[0]
    return {arch: exceed[arch] / trials for arch in archs}


def verify_bounds(K_grid, M_grid, D: float, trials: int, seed: int,
                  eps: float = 0.1) -> List[BoundVerdict]:
    """Confront the straggler moment formulas and bounds with uniform draws.

    For each (K, M): exact fixed-antenna second moment (two-sided), the
    pinched-antenna sandwich (one-sided each way), the span moments, the
    minimum-spacing second moment, the concentration tail, and the
    deterministic ordering (zero violations allowed).
    """
    trials = _trial_count(trials)
    if not (math.isfinite(D) and D > 0):
        raise ParameterError("corridor length D must be positive and finite")
    # an eps at or above min(p, 1 - p) skips only that (K, M)'s tail verdict
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError("tail deviation eps must be positive and finite")
    # an M is an integer >= 1; it is skipped for every K below it
    K_grid = [analytics.check_order(K)[0] for K in K_grid]
    M_grid = [analytics.check_order(M)[0] for M in M_grid]
    verdicts: List[BoundVerdict] = []
    for K in K_grid:
        verdicts += _verify_one_k(K, [M for M in M_grid if M <= K], D, trials,
                                  seed, eps)
    return verdicts


def _verify_one_k(K: int, M_grid, D: float, trials: int, seed: int,
                  eps: float) -> List[BoundVerdict]:
    """The verdicts of ``verify_bounds`` at one K, for M_grid <= K.  Its
    column block and workspace are released on return, before the next K
    allocates its own."""
    conv_m = {M: _Moment() for M in M_grid}
    pa_m = {M: _Moment() for M in M_grid}
    span_mean = {M: _Moment() for M in M_grid if M >= 2}
    tail_hits = dict.fromkeys(M_grid, 0)
    # the mean M/(K+1) of U_(M): the tail centre of the M-th offset
    p_dag = {M: analytics.order_stat_moments(K, M)[0] for M in M_grid}
    minspace = _Moment()
    violations = 0
    # one column per order statistic: the windows, spacings and spans
    # below reduce across K with contiguous inner loops.  Each block is
    # drawn in row chunks into the workspace and copied into the block's
    # columns, each chunk's rows sorted before the copy, or, at K up to
    # _NETWORK_K, the full block's columns sorted by one network; no array
    # is run-sized, and only the column block grows with K.  A chunk
    # divides the block, so every block keeps its rows whatever K
    network = K <= _NETWORK_K
    rows = min(_BLOCK_ROWS, trials)
    cols = _aligned(rows * K).reshape((rows, K), order="F")
    # the workspace: a scan region of _SCAN_COLS columns of a block (or
    # one row of K), then one column each for PA at M=2, CONV and PA at
    # the loop's M, and the squares, with a column of flags beside it, so
    # the loop allocates nothing per block; every column of a full block
    # starts a cache line
    scan = max(_BLOCK_ROWS * _SCAN_COLS, K)
    space = _aligned(scan + 4 * rows)
    pa2_col, conv_col, pa_col, sq_col = space[scan:].reshape(4, rows)
    flag_col = np.empty(rows, dtype=bool)
    c = next(d for d in range(min(_BLOCK_ROWS, scan // K), 0, -1)
             if _BLOCK_ROWS % d == 0)
    done = 0
    for chunk, _ in _blocks(DistributionSpec(kind=UNIFORM, D=D), K, trials,
                            seed, space[:c * K].reshape(c, K)):
        r = done % len(cols)
        n = r + len(chunk)
        if not network:
            chunk.sort(axis=1)
        cols[r:n] = chunk
        done += len(chunk)
        # scan once the block is full or the draws end
        if n < len(cols) and done < trials:
            continue
        xs = cols[:n]
        # the scan region is dead until the next draw, so its first
        # n * _SCAN_COLS values hold the network's spare column, the scans'
        # chunks of windows, and then the spacing's gaps and each span
        # column.  The squares column is also the scans' scratch and takes
        # the tail test's deviations
        work, sq, flags = space[:n * _SCAN_COLS], sq_col[:n], flag_col[:n]
        if network:
            _sort_columns(xs, work[:n])
        # half the smallest gap of two neighbours, scanned once: PA at M=2,
        # and, before the M loop squares it, part of the minimum spacing
        half2 = None
        if K >= 2:
            half2 = _scan_windows(xs, 2, _width, work, pa2_col[:n], sq)
            half2 /= 2.0
        gap = _min_spacing(xs, half2, D, work)
        minspace.add(np.square(gap, out=gap), sq)
        for M in conv_m:
            # spatial.sorted_conv_offsets and pa_offsets, into the columns
            y = _scan_windows(xs, M, _reach, work, conv_col[:n], sq)
            half = half2
            if M != 2:
                half = _scan_windows(xs, M, _width, work, pa_col[:n], sq)
                half /= 2.0
            violations += int(np.count_nonzero(np.greater(half, y, out=flags)))
            dev = np.divide(y, D / 2.0, out=sq)
            dev -= p_dag[M]
            tail_hits[M] += np.count_nonzero(
                np.greater_equal(np.abs(dev, out=dev), eps, out=flags))
            conv_m[M].add(np.square(y, out=y), sq)
            pa_m[M].add(np.square(half, out=half), sq)
        for M in span_mean:
            span = np.subtract(xs[:, M - 1], xs[:, 0], out=work[:n])
            span /= D
            span_mean[M].add(span, sq)
    verdicts = [BoundVerdict(
        name=f"K={K} ordering pa<=conv", analytic=0.0,
        empirical=float(violations), std_error=0.0,
        passed=violations == 0, kind="exact",
    ), _verdict(f"K={K} min-spacing E[M*^2]",
                analytics.min_spacing_second_moment(K), minspace)]
    for M in conv_m:
        rep = analytics.straggler_moments(K, M, D)
        verdicts += [
            _verdict(f"K={K} M={M} conv E[Y^2]", rep.conv_E2, conv_m[M]),
            _verdict(f"K={K} M={M} pa upper", rep.pa_ub, pa_m[M], "upper"),
            _verdict(f"K={K} M={M} pa lower", rep.pa_lb, pa_m[M], "lower"),
        ]
        if eps < min(p_dag[M], 1.0 - p_dag[M]):
            # a 0/1 statistic: its sum of squares is its count of hits
            hits = float(tail_hits[M])
            verdicts.append(_verdict(f"K={K} M={M} hoeffding tail",
                                     analytics.hoeffding_tail(K, eps),
                                     _Moment(trials, hits, hits), "upper"))
        if M >= 2:
            # M-1 spacings span a Beta(M-1, K-M+2) length, as U_(M-1)
            verdicts.append(_verdict(
                f"K={K} M={M} span mean",
                analytics.order_stat_moments(K, M - 1)[0], span_mean[M]))
    return verdicts


def participation_sweep(K: int, T_grid, model: DeadlineModel,
                        spec: DistributionSpec, phy: PhyParams, trials: int,
                        seed: int) -> List[dict]:
    """Analytic vs simulated participant counts over a deadline sweep.

    Common random numbers: the run draws positions and compute times once
    and scores every deadline from that one draw, so the simulated gap
    between deadlines carries no fresh sampling noise.  Each block of
    ``_BLOCK_ROWS`` rows is scored as it is drawn, in at most two block
    buffers and the counting copy of at most a quarter of a block: the
    CONV latencies and then their finishing times overwrite the positions,
    and the PA finishing times overwrite the compute times.
    Under deterministic compute only positions are drawn: a CONV user meets
    T_d where |x| <= rho(T_d - t0), and each trial counts K PA users or none.
    The closed forms take the whole grid in one call.
    Each deadline's count is Bin(K, n/K), so each row carries the binomial
    standard error of its mean beside the sample one.
    """
    T_grid = check_deadline(_ascending(T_grid))
    trials = _trial_count(trials)
    K, _ = analytics.check_order(K)
    tau_pa = upload_latency(phy.c, 0.0, 0.0, phy.S, phy.d)
    deterministic = model.fc_kind == DETERMINISTIC
    # per deadline, CONV then PA: integer sums of participants and of squares
    sums = np.zeros((2, T_grid.size), dtype=np.int64)
    sums_sq = np.zeros((2, T_grid.size), dtype=np.int64)
    if deterministic:
        pa_met = (model.t0 + tau_pa <= T_grid).astype(np.int64)
        sums[1] = trials * K * pa_met
        sums_sq[1] = trials * K * K * pa_met
        reach = latency_inverse(phy.c, T_grid - model.t0, phy.S, phy.d)
    else:
        compute_times = np.empty((min(_BLOCK_ROWS, trials), K))
    block = np.empty((min(_BLOCK_ROWS, trials), K))
    for xs, compute in _blocks(spec, K, trials, seed, block):
        if deterministic:
            finishes = [(reach, np.abs(xs, out=xs))]
        else:
            tau_conv = upload_latency(phy.c, xs, 0.0, phy.S, phy.d, out=xs)
            # the bits of exponential(1 / rate), which is its scale times a
            # standard draw
            T_c = compute.standard_exponential(out=compute_times[:len(xs)])
            T_c *= 1.0 / model.rate
            T_c += model.t0
            finishes = [(T_grid, np.add(T_c, tau_conv, out=tau_conv)),
                        (T_grid, np.add(T_c, tau_pa, out=T_c))]
        for i, (grid, finish) in enumerate(finishes):
            total, total_sq = _met_counts(grid, finish)
            sums[i] += total
            sums_sq[i] += total_sq
    report = expected_participants(K, T_grid, model, spec, phy)
    n = np.stack([report.n_conv, report.n_pa])
    # n (1 - n/K) may round below 0 where n is K
    binom = np.sqrt(np.maximum(n * (1.0 - n / K), 0.0) / trials)
    rows = []
    for j, T_d in enumerate(T_grid.tolist()):
        conv_stat, pa_stat = (_Moment(trials, float(sums[i, j]),
                                      float(sums_sq[i, j])) for i in (0, 1))
        rows.append({
            "T_d": T_d,
            "n_conv": float(report.n_conv[j]),
            "n_pa": float(report.n_pa[j]),
            "gap": float(report.gap[j]),
            "n_conv_mc": conv_stat.mean,
            "n_pa_mc": pa_stat.mean,
            "conv_stderr": conv_stat.std_error,
            "pa_stderr": pa_stat.std_error,
            "conv_stderr_binom": float(binom[0, j]),
            "pa_stderr_binom": float(binom[1, j]),
        })
    return rows
