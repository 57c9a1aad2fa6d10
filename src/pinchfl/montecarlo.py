"""Trial runners that confront the closed forms with empirical draws.

Every estimator is chunked and seeded per chunk, so results are reproducible
bit-for-bit for a given (seed, trials) and independent of how the work is
ordered.  Acceptance convention: two-sided checks pass within three standard
errors; one-sided bounds get one-sided slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; pay that at import

from . import analytics
from .errors import ParameterError
from .participation import DETERMINISTIC, DeadlineModel, expected_participants
from .phy import PhyParams, upload_latency
from .spatial import (CONV, PA, DistributionSpec, conv_offsets, draw_positions,
                      min_spacings, pa_offsets)

CHUNK = 100_000

SFL = "SFL"
AFL = "AFL"


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent substream for one chunk of trials."""
    return np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))


def _chunks(trials: int):
    done = 0
    index = 0
    while done < trials:
        n = min(CHUNK, trials - done)
        yield index, n
        done += n
        index += 1


def _ascending(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not np.all(np.diff(grid) >= 0):
        raise ParameterError("grid must be one-dimensional and ascending")
    return grid


def _met_counts(grid: np.ndarray, finish: np.ndarray) -> np.ndarray:
    """Per row of ``finish`` (n, w), how many entries are <= each point of
    the ascending ``grid`` (G,): an (n, G) integer array.

    ``searchsorted`` gives each entry the first grid point it meets, exactly
    as ``finish <= grid[g]`` would: an ``inf`` meets no finite point and a
    ``nan`` meets none.  One ``bincount`` over row-offset indices and a
    cumulative sum along each row turn those into counts for every grid
    point at once.
    """
    n, G = finish.shape[0], grid.size
    idx = np.searchsorted(grid, finish, side="left")
    idx += (np.arange(n) * (G + 1))[:, None]
    counts = np.bincount(idx.ravel(), minlength=n * (G + 1)).reshape(n, G + 1)
    np.cumsum(counts, axis=1, out=counts)
    return counts[:, :G]


class _Moment:
    """Streaming mean and standard error of a scalar statistic.

    It may start from the count, sum and sum of squares of values already
    accumulated elsewhere.
    """

    def __init__(self, n: int = 0, total: float = 0.0, total_sq: float = 0.0):
        self.n = n
        self.total = total
        self.total_sq = total_sq

    def add(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        self.n += values.size
        self.total += float(values.sum())
        self.total_sq += float(np.square(values).sum())

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def std_error(self) -> float:
        var = max(self.total_sq / self.n - self.mean**2, 0.0)
        return math.sqrt(var / self.n)


@dataclass(frozen=True)
class CcdfSeries:
    """Empirical exceedance probabilities on an ascending latency grid."""

    grid: np.ndarray
    ccdf: np.ndarray
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "ccdf", np.asarray(self.ccdf, dtype=float))


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one analytic-vs-empirical confrontation."""

    name: str
    analytic: float
    empirical: float
    std_error: float
    passed: bool
    kind: str = "two_sided"


def sfl_round_latencies(rng, spec: DistributionSpec, K: int, M: int,
                        phy: PhyParams, arch: str, n: int) -> np.ndarray:
    """Per-trial synchronous round times (slowest of M scheduled uploads)."""
    xs = draw_positions(rng, spec, (n, K))
    if arch == CONV:
        bottleneck = conv_offsets(xs, M)
    else:
        bottleneck = pa_offsets(np.sort(xs, axis=1), M)
    return upload_latency(phy.c_round(M), bottleneck, 0.0, phy.S, phy.d)


def afl_upload_latencies(rng, spec: DistributionSpec, phy: PhyParams,
                        arch: str, n: int) -> np.ndarray:
    """Per-trial single-user upload times (radiator pinned under PA)."""
    c = phy.c
    if arch == PA:
        return np.full(n, upload_latency(c, 0.0, 0.0, phy.S, phy.d))
    return upload_latency(c, draw_positions(rng, spec, n), 0.0, phy.S, phy.d)


def estimate_ccdf(mode: str, arch: str, phy: PhyParams, spec: DistributionSpec,
                  K: int, M_or_model, trials: int, grid, seed: int) -> CcdfSeries:
    """Empirical CCDF of the per-round (SFL) or per-upload (AFL) latency."""
    grid = _ascending(grid)
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    if mode not in (SFL, AFL):
        raise ParameterError(f"unknown mode {mode!r}")
    if arch not in (CONV, PA):
        raise ParameterError(f"unknown architecture {arch!r}")
    K, M = analytics.check_order(K, M_or_model if mode == SFL else 1)
    exceed = np.zeros(grid.size, dtype=np.int64)
    for chunk, n in _chunks(trials):
        rng = _chunk_rng(seed, chunk)
        if mode == SFL:
            lat = sfl_round_latencies(rng, spec, K, M, phy, arch, n)
        else:
            lat = afl_upload_latencies(rng, spec, phy, arch, n)
        exceed += n - _met_counts(grid, lat[None, :])[0]
    return CcdfSeries(grid=grid, ccdf=exceed / trials, trials=trials, seed=seed)


def verify_bounds(K_grid, M_grid, D: float, trials: int, seed: int,
                  eps: float = 0.1) -> List[BoundVerdict]:
    """Confront the straggler moment formulas and bounds with uniform draws.

    For each (K, M): exact fixed-antenna second moment (two-sided), the
    pinched-antenna sandwich (one-sided each way), the span moments, the
    minimum-spacing second moment, the concentration tail, and the
    deterministic ordering (zero violations allowed).
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    # an M is an integer >= 1; it is skipped for every K below it
    K_grid = [analytics.check_order(K)[0] for K in K_grid]
    M_grid = [analytics.check_order(M)[0] for M in M_grid]
    verdicts: List[BoundVerdict] = []
    for K in K_grid:
        conv_m = {M: _Moment() for M in M_grid if M <= K}
        pa_m = {M: _Moment() for M in M_grid if M <= K}
        span_mean = {M: _Moment() for M in M_grid if 2 <= M <= K}
        tail_hits = {M: _Moment() for M in M_grid if M <= K}
        minspace = _Moment()
        violations = 0
        for chunk, n in _chunks(trials):
            xs = _chunk_rng(seed, chunk).random((n, K))
            xs -= 0.5
            xs *= D
            xs.sort(axis=1)
            conv = conv_offsets(xs, list(conv_m))
            # one column per order statistic: the spacings, windows and spans
            # below reduce across K with contiguous n-long inner loops
            xs = np.asfortranarray(xs)
            for j, M in enumerate(conv_m):
                y = conv[:, j]
                conv_m[M].add(y**2)
                half = pa_offsets(xs, M)
                pa_m[M].add(half**2)
                violations += int(np.sum(half > y + 1e-12))
                tail_hits[M].add(
                    (np.abs(y / (D / 2.0) - M / (K + 1)) >= eps).astype(float)
                )
                if M >= 2:
                    span_mean[M].add((xs[:, M - 1] - xs[:, 0]) / D)
            # normalised in place to u = (x + D/2) / D; no second name
            # keeps this chunk's buffer alive into the next draw
            xs += D / 2.0
            xs /= D
            minspace.add(min_spacings(xs) ** 2)
        verdicts.append(BoundVerdict(
            name=f"K={K} ordering pa<=conv", analytic=0.0,
            empirical=float(violations), std_error=0.0,
            passed=violations == 0, kind="exact",
        ))
        ms = analytics.min_spacing_second_moment(K)
        verdicts.append(BoundVerdict(
            name=f"K={K} min-spacing E[M*^2]", analytic=ms,
            empirical=minspace.mean, std_error=minspace.std_error,
            passed=abs(minspace.mean - ms) <= 3.0 * minspace.std_error,
        ))
        for M in conv_m:
            rep = analytics.straggler_moments(K, M, D)
            cm, pm = conv_m[M], pa_m[M]
            verdicts.append(BoundVerdict(
                name=f"K={K} M={M} conv E[Y^2]", analytic=rep.conv_E2,
                empirical=cm.mean, std_error=cm.std_error,
                passed=abs(cm.mean - rep.conv_E2) <= 3.0 * cm.std_error,
            ))
            verdicts.append(BoundVerdict(
                name=f"K={K} M={M} pa upper", analytic=rep.pa_ub,
                empirical=pm.mean, std_error=pm.std_error,
                passed=pm.mean <= rep.pa_ub + 3.0 * pm.std_error, kind="upper",
            ))
            verdicts.append(BoundVerdict(
                name=f"K={K} M={M} pa lower", analytic=rep.pa_lb,
                empirical=pm.mean, std_error=pm.std_error,
                passed=pm.mean >= rep.pa_lb - 3.0 * pm.std_error, kind="lower",
            ))
            p_dag = M / (K + 1)
            if 0 < eps < min(p_dag, 1.0 - p_dag):
                _, _, hoeffding = analytics.concentration_bounds(K, M, eps)
                th = tail_hits[M]
                verdicts.append(BoundVerdict(
                    name=f"K={K} M={M} hoeffding tail", analytic=hoeffding,
                    empirical=th.mean, std_error=th.std_error,
                    passed=th.mean <= hoeffding + 3.0 * th.std_error,
                    kind="upper",
                ))
            if M >= 2:
                m = M - 1
                mean_th = m / (K + 1)
                sm = span_mean[M]
                verdicts.append(BoundVerdict(
                    name=f"K={K} M={M} span mean", analytic=mean_th,
                    empirical=sm.mean, std_error=sm.std_error,
                    passed=abs(sm.mean - mean_th) <= 3.0 * sm.std_error,
                ))
    return verdicts


def participation_sweep(K: int, T_grid, model: DeadlineModel,
                        spec: DistributionSpec, phy: PhyParams, trials: int,
                        seed: int) -> List[dict]:
    """Analytic vs simulated participant counts over a deadline sweep.

    Common random numbers: each chunk draws positions and compute times once
    and scores every deadline from that one draw, so the simulated gap
    between deadlines carries no fresh sampling noise.
    """
    T_grid = _ascending(T_grid)
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    K, _ = analytics.check_order(K)
    tau_pa = upload_latency(phy.c, 0.0, 0.0, phy.S, phy.d)
    # per deadline, CONV then PA: integer sums of participants and of squares
    sums = np.zeros((2, T_grid.size), dtype=np.int64)
    sums_sq = np.zeros((2, T_grid.size), dtype=np.int64)
    for chunk, n in _chunks(trials):
        rng = _chunk_rng(seed, chunk)
        tau_conv = upload_latency(phy.c, draw_positions(rng, spec, (n, K)),
                                  0.0, phy.S, phy.d)
        if model.fc_kind == DETERMINISTIC:
            T_c = model.t0
        else:
            T_c = model.t0 + rng.exponential(1.0 / model.rate, size=(n, K))
        # the finishing times T_c + tau of both architectures take turns in
        # the tau_conv buffer, which keeps the peak memory low
        for i, tau in enumerate((tau_conv, tau_pa)):
            counts = _met_counts(T_grid, np.add(T_c, tau, out=tau_conv))
            sums[i] += counts.sum(axis=0)
            sums_sq[i] += np.square(counts, out=counts).sum(axis=0)
    rows = []
    for j, T_d in enumerate(T_grid):
        model_T = DeadlineModel(T_d=float(T_d), fc_kind=model.fc_kind,
                                t0=model.t0, rate=model.rate, p_s=model.p_s)
        report = expected_participants(K, float(T_d), model_T, spec, phy)
        conv_stat, pa_stat = (_Moment(trials, float(sums[i, j]),
                                      float(sums_sq[i, j])) for i in (0, 1))
        rows.append({
            "T_d": float(T_d),
            "n_conv": report.n_conv,
            "n_pa": report.n_pa,
            "gap": report.gap,
            "n_conv_mc": conv_stat.mean,
            "n_pa_mc": pa_stat.mean,
            "conv_stderr": conv_stat.std_error,
            "pa_stderr": pa_stat.std_error,
        })
    return rows
