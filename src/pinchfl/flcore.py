"""FL training stack: sampling gates, quantizer with error feedback,
inverse-probability aggregation, convergence-constant calculators, and the
synchronous/asynchronous training loops on synthetic quadratic objectives.

User positions are a plain (K,) array; ``spatial.schedule_round`` picks the
users of a synchronous round and where the radiator sits.  Wall-clock
accounting follows the link budget: a synchronous round costs the slowest
scheduled upload (bandwidth split 1/M), an asynchronous tick batches the
uploads that meet the deadline (full bandwidth per upload).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; pay that at import

from .errors import InfeasibleLinkError, ParameterError
from .participation import DETERMINISTIC, DeadlineModel
from .phy import PhyParams, upload_latency
from .spatial import CONV, PA, schedule_round

_ALPHA_CAP = 1.0 - 1e-6
_S_MAX = np.finfo(float).max / 2.0  # largest row scale whose 2 s is finite


@dataclass(frozen=True)
class QuantizerSpec:
    """Per-coordinate bit budget and the high-rate fidelity model.

    ``c_q = 0`` selects the identity (lossless) mode used in tests.
    """

    b: int
    c_q: float = 1.0

    def __post_init__(self):
        if self.b < 1:
            raise ParameterError("bit budget b must be at least 1")
        if self.c_q < 0:
            raise ParameterError("high-rate constant c_q must be nonnegative")

    @property
    def alpha(self) -> float:
        """Fidelity 1 - min(c_q * 2^(-2b), cap); equals 1 in identity mode."""
        return 1.0 - min(self.c_q * 2.0 ** (-2 * self.b), _ALPHA_CAP)


def inclusion_probability(tau: float, model: DeadlineModel) -> float:
    """Unconditional inclusion probability p_s * F_c(T_d - tau)."""
    if tau < 0:
        raise ParameterError("upload time tau must be nonnegative")
    return model.p_s * model.F_c(model.T_d - tau)


def xi_safe(K: int, pi_min: float) -> float:
    """Sampling-noise amplification factor (K - 1 + 1/pi_min) / K."""
    if K < 1:
        raise ParameterError("K must be at least 1")
    if not 0 < pi_min <= 1:
        raise ParameterError("pi_min must lie in (0, 1]; zero is degenerate")
    return (K - 1 + 1.0 / pi_min) / K


def draw_gates(taus, model: DeadlineModel, rng):
    """Two-stage gate for users with upload times ``taus``.

    Each user triggers with probability p_s (Z); a triggered user draws its
    compute time T_c (untriggered users keep t0) and is included (I) when
    T_c + tau meets the deadline, so P(I) = inclusion_probability(tau).
    Returns boolean Z and I and the float T_c, shaped like ``taus``.
    """
    taus = np.asarray(taus, dtype=float)
    Z = rng.random(taus.shape) < model.p_s
    T_c = np.full(taus.shape, float(model.t0))
    if model.fc_kind != DETERMINISTIC:
        T_c[Z] += rng.exponential(1.0 / model.rate, size=int(Z.sum()))
    return Z, T_c, Z & (T_c + taus <= model.T_d)


def quantize(v: np.ndarray, b: int) -> np.ndarray:
    """Symmetric uniform quantizer on the last axis: 2^b levels evenly spaced
    on [-s, s] with per-row scale s = max|v|, rounding half away from zero.

    A row whose grid step is zero (all zeros, or so small that the step
    underflows) is returned as is, with zeros as +0.  A row holding a NaN, an
    infinity or a scale above half the largest float, where 2 s overflows,
    raises ParameterError.
    """
    v = np.asarray(v, dtype=float)
    q = np.abs(v)
    s = np.maximum.reduce(q, axis=-1, keepdims=True, initial=0.0)
    # the largest scale decides, and a NaN fails the comparison too
    if not np.maximum.reduce(s, axis=None, initial=0.0) <= _S_MAX:
        raise ParameterError("quantizer input must be finite, with max|v| "
                             "at most half the largest float")
    n = 2**b
    step = 2.0 * s / (n - 1)
    exact = step == 0.0
    step[exact] = 1.0
    # quantize |v| on the symmetric grid in place, then restore signs; rounding
    # up on the magnitude axis is round-half-away-from-zero on the original axis
    q += s
    q /= step
    q += 0.5
    np.floor(q, out=q)  # at least 0, so only the top level needs a clip
    np.minimum(q, n - 1, out=q)
    q *= step
    q -= s
    # negate where v < 0 rather than copysign, which would also flip -0.0 inputs
    np.negative(q, out=q, where=v < 0)
    return np.where(exact, v + 0.0, q) if exact.any() else q


def quantize_ef(g: np.ndarray, e: np.ndarray, spec: QuantizerSpec):
    """One error-feedback step: Y = Q(g + e), next residual is (g + e) - Y.

    Rows of a (K, d) array are independent users."""
    g = np.asarray(g, dtype=float)
    e = np.asarray(e, dtype=float)
    if g.shape != e.shape:
        raise ParameterError("gradient and residual must share a shape")
    v = g + e
    if spec.alpha >= 1.0:
        return v.copy(), np.zeros_like(v)
    Y = quantize(v, spec.b)
    return Y, v - Y


def ht_aggregate(entries, K: int) -> np.ndarray:
    """Inverse-probability aggregate (1/K) sum_i I_i Y_i / pi_i over
    (I, pi, Y) entries, summed in entry order."""
    if K < 1:
        raise ParameterError("K must be at least 1")
    if not entries:
        return np.zeros(0)
    return _ht_kernel(*(np.asarray(a, dtype=float) for a in zip(*entries)), K)


def _ht_kernel(I: np.ndarray, pi: np.ndarray, Y: np.ndarray, K: int) -> np.ndarray:
    """``ht_aggregate`` over float arrays: I and pi of shape (n,), Y (n, ...)."""
    inc = I != 0
    if np.any(pi[inc] <= 0):
        raise ParameterError("included entry with zero inclusion probability")
    if not inc.any():
        return np.zeros(Y.shape[1:])
    terms = (I[inc] * Y[inc].T / pi[inc]).T
    # cumsum adds row by row; sum(axis=0) may pair rows up and round differently
    return np.cumsum(terms, axis=0)[-1] / K


def ht_second_moment_exact(Ys, pis, K: int) -> float:
    """Exact conditional second moment of the aggregate for fixed updates."""
    Ys = [np.asarray(Y, dtype=float) for Y in Ys]
    pis = np.asarray(pis, dtype=float)
    if np.any(pis <= 0) or np.any(pis > 1):
        raise ParameterError("inclusion probabilities must lie in (0, 1]")
    total = np.sum(Ys, axis=0)
    norms = np.array([float(np.dot(Y, Y)) for Y in Ys])
    return float(np.dot(total, total) + np.sum((1.0 / pis - 1.0) * norms)) / K**2


@dataclass(frozen=True)
class ConvergenceReport:
    """Stepsize bounds, contraction constants, and error floors."""

    xi_safe: float
    eta_max: float
    rho_b: float
    A_plus: float
    lambda_min: float
    variance_floor: float
    variance_floor_avg: float
    ef_floor: float
    pl_rate: Optional[float] = None
    pl_lambda_min: Optional[float] = None
    eta_max_stale: Optional[float] = None


def convergence_constants(L: float, eta: float, xi: float, spec: QuantizerSpec,
                          sigma2: float = 0.0, delta2: float = 0.0,
                          G2: float = 0.0, mu: Optional[float] = None,
                          delta_max: Optional[float] = None,
                          c0: float = 0.25) -> ConvergenceReport:
    """All Lyapunov-descent constants for one operating point.

    ``sigma2``/``delta2``/``G2`` feed the variance and error-feedback floors;
    ``mu`` adds the gradient-dominated linear-rate constants and ``delta_max``
    the staleness-limited stepsize bound.
    """
    if L <= 0 or eta <= 0:
        raise ParameterError("L and eta must be positive")
    if xi < 1:
        raise ParameterError("amplification factor xi must be at least 1")
    alpha = spec.alpha
    if alpha <= 0:
        raise ParameterError("quantizer fidelity must be positive")
    rho_b = (1.0 - alpha) * (1.0 + alpha / 2.0)
    c1 = 1.0 + 2.0 / alpha
    eta_max = 1.0 / (L * (1.0 + 3.0 * xi))
    A_plus = 1.0 / L + 1.5 * L * eta**2 * xi
    lambda_min = A_plus * (1.0 + rho_b) / (1.0 - rho_b)
    variance_floor = 1.5 * L * eta**2 * xi * (sigma2 + delta2)
    variance_floor_avg = 3.0 * L * eta * xi * (sigma2 + delta2)
    ef_floor = (lambda_min + A_plus) * c1 * (1.0 - alpha) * (G2 + sigma2)
    pl_rate = pl_lambda_min = eta_max_stale = None
    if mu is not None:
        if mu <= 0:
            raise ParameterError("mu must be positive")
        if eta * mu >= 1.0 - rho_b:
            raise ParameterError(
                "eta * mu must stay below 1 - rho_b for the linear-rate regime"
            )
        pl_rate = 1.0 - eta * mu
        pl_lambda_min = A_plus * (1.0 + rho_b) / (1.0 - rho_b - eta * mu)
    if delta_max is not None:
        if delta_max < 0:
            raise ParameterError("delta_max must be nonnegative")
        if not 0 < c0 <= 1:
            raise ParameterError("c0 must lie in (0, 1]")
        eta_max_stale = c0 / (L * (1.0 + delta_max))
    return ConvergenceReport(
        xi_safe=xi, eta_max=eta_max, rho_b=rho_b, A_plus=A_plus,
        lambda_min=lambda_min, variance_floor=variance_floor,
        variance_floor_avg=variance_floor_avg, ef_floor=ef_floor,
        pl_rate=pl_rate, pl_lambda_min=pl_lambda_min,
        eta_max_stale=eta_max_stale,
    )


@dataclass(frozen=True)
class SyntheticProblem:
    """K local quadratics f_i(w) = ||w - c_i||^2 / 2 with Gaussian gradient noise.

    Smoothness and gradient-dominance constants are both exactly 1; the
    heterogeneity level (mean squared center spread) is known exactly.
    """

    centers: np.ndarray
    noise_sigma: float
    L: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        # a private read-only copy, so the cached w_star cannot go stale
        centers = np.array(self.centers, dtype=float)
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        if self.centers.ndim != 2:
            raise ParameterError("centers must be a (K, d_w) array")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be nonnegative")

    @property
    def K(self) -> int:
        return self.centers.shape[0]

    @property
    def d_w(self) -> int:
        return self.centers.shape[1]

    @cached_property
    def w_star(self) -> np.ndarray:
        w_star = self.centers.mean(axis=0)
        w_star.flags.writeable = False
        return w_star

    @property
    def delta2(self) -> float:
        diff = self.centers - self.w_star
        return float(np.mean(np.sum(diff**2, axis=1)))

    def loss_gap(self, w: np.ndarray) -> float:
        """F(w) - F*, which is half the squared distance to the center mean."""
        return 0.5 * self.grad_norm2(w)

    def grad_norm2(self, w: np.ndarray) -> float:
        diff = np.asarray(w) - self.w_star
        return float(np.dot(diff, diff))

    def stochastic_grads(self, ws: np.ndarray, rng) -> np.ndarray:
        """Per-user noisy gradients; ``ws`` is (K, d_w) or a single point."""
        ws = np.asarray(ws, dtype=float)
        if ws.ndim == 1:
            ws = np.broadcast_to(ws, self.centers.shape)
        noise = rng.normal(0.0, self.noise_sigma / math.sqrt(self.d_w),
                           size=self.centers.shape)
        return ws - self.centers + noise

    def initial_point(self, gap: float = 1.0) -> np.ndarray:
        """A start with F(w0) - F* equal to ``gap`` exactly."""
        return self.w_star + math.sqrt(2.0 * gap / self.d_w) * np.ones(self.d_w)


def make_synthetic_problem(K: int, d_w: int, delta2_target: float,
                           noise_sigma: float, seed: int) -> SyntheticProblem:
    """Random centers rescaled so the heterogeneity level is hit exactly."""
    if K < 1 or d_w < 1:
        raise ParameterError("K and d_w must be at least 1")
    if delta2_target < 0:
        raise ParameterError("delta2_target must be nonnegative")
    rng = np.random.default_rng(seed)
    if delta2_target == 0.0:
        centers = np.zeros((K, d_w))
    else:
        raw = rng.normal(size=(K, d_w))
        raw -= raw.mean(axis=0)
        current = np.mean(np.sum(raw**2, axis=1))
        centers = raw * math.sqrt(delta2_target / current)
    return SyntheticProblem(centers=centers, noise_sigma=noise_sigma)


@dataclass
class TrainRecord:
    """One logged round (synchronous) or tick batch (asynchronous)."""

    time: float
    index: int
    arch: str
    scheduled: tuple
    z: float
    bottleneck: float
    latency: float
    participants: int
    staleness: int
    loss: float
    grad_norm2: float


@dataclass
class TrainLog:
    """Event records; times are nondecreasing."""

    records: List[TrainRecord] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.records[-1].time if self.records else 0.0

    @property
    def max_staleness(self) -> int:
        return max((r.staleness for r in self.records), default=0)

    def time_to_loss(self, target: float) -> float:
        """Wall-clock time of the first event with loss at or below target."""
        for r in self.records:
            if r.loss <= target:
                return r.time
        return math.inf


def run_sfl(problem: SyntheticProblem, xs: np.ndarray, phy: PhyParams,
            M: int, eta: float, spec: QuantizerSpec, rounds: int, arch: str,
            seed: int, w0: Optional[np.ndarray] = None) -> TrainLog:
    """Synchronous training: M scheduled users, bandwidth split 1/M.

    All users run the error-feedback recursion every round; only the scheduled
    set is aggregated, with uniform 1/M weights.  The round time is the
    slowest scheduled upload.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (problem.K,):
        raise ParameterError(f"xs must be a ({problem.K},) array of positions")
    if rounds < 1 or eta <= 0:
        raise ParameterError("rounds must be >= 1 and eta positive")
    sched, z = schedule_round(xs, M, arch)
    taus = upload_latency(phy.c_round(M), xs[sched], z, phy.S, phy.d)
    if np.any(np.isinf(taus)):
        raise InfeasibleLinkError("a scheduled link has zero rate")
    round_time = float(np.max(taus))
    scheduled = tuple(int(i) for i in sched)
    bottleneck = float(np.max(np.abs(xs[sched] - z)))

    rng = np.random.default_rng(seed)
    w = problem.initial_point() if w0 is None else np.asarray(w0, dtype=float).copy()
    e = np.zeros_like(problem.centers)
    log = TrainLog()
    t = 0.0
    grad_norm2 = problem.grad_norm2(w)
    for rnd in range(rounds):
        Ys, e = quantize_ef(problem.stochastic_grads(w, rng), e, spec)
        w = w - eta * Ys[sched].mean(axis=0)
        t += round_time
        # this round's post-update norm is the next round's pre-update norm
        pre, grad_norm2 = grad_norm2, problem.grad_norm2(w)
        log.records.append(TrainRecord(
            time=t, index=rnd, arch=arch, scheduled=scheduled,
            z=float(z), bottleneck=bottleneck, latency=round_time,
            participants=M, staleness=0, loss=0.5 * grad_norm2,
            grad_norm2=pre,
        ))
    return log


def run_afl(problem: SyntheticProblem, xs: np.ndarray, phy: PhyParams,
            model: DeadlineModel, eta: float, spec: QuantizerSpec,
            horizon_s: float, arch: str, seed: int, weighting: str = "HT",
            tick_period: Optional[float] = None,
            w0: Optional[np.ndarray] = None) -> TrainLog:
    """Asynchronous training driven by a periodic trigger.

    Each tick, idle users refresh their model cache, every user runs the
    error-feedback recursion on its cache, and idle users pass the two-stage
    gate (Bernoulli trigger, compute-plus-upload deadline).  Uploads that meet
    the deadline are batched into one inverse-probability (or uniform) update
    applied when the last of them arrives; users stay busy until their upload
    lands, so slow links carry stale caches.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (problem.K,):
        raise ParameterError(f"xs must be a ({problem.K},) array of positions")
    if weighting not in ("HT", "uniform"):
        raise ParameterError(f"unknown weighting {weighting!r}")
    if horizon_s <= 0 or eta <= 0:
        raise ParameterError("horizon and eta must be positive")
    T_p = model.T_d if tick_period is None else tick_period
    if T_p <= 0:
        raise ParameterError("tick period must be positive")

    K = problem.K
    c = phy.c
    if arch == CONV:
        taus = upload_latency(c, xs, 0.0, phy.S, phy.d)
    elif arch == PA:
        # radiator pins to each uploader, so every link distance is d
        taus = np.full(K, upload_latency(c, 0.0, 0.0, phy.S, phy.d))
    else:
        raise ParameterError(f"unknown architecture {arch!r}")
    pis = np.array([inclusion_probability(t, model) for t in taus])

    rng = np.random.default_rng(seed)
    w = problem.initial_point() if w0 is None else np.asarray(w0, dtype=float).copy()
    e = np.zeros_like(problem.centers)
    caches = np.tile(w, (K, 1))
    cache_ver = np.zeros(K, dtype=int)
    busy_until = np.zeros(K)
    version = 0
    # heap of (apply time, tick, batch latency, updates, their pis, their
    # fetch versions), uploads in arrival order; the tick breaks ties
    pending: list = []
    log = TrainLog()

    def apply_batches(up_to: float):
        nonlocal w, version
        while pending and pending[0][0] <= up_to:
            apply_time, _, lat, Ys, up_pis, fetch_vers = heapq.heappop(pending)
            ones = np.ones(len(Ys))
            if weighting == "HT":
                update = _ht_kernel(ones, up_pis, Ys, K)
            else:
                update = _ht_kernel(ones, ones, Ys, len(Ys))
            w = w - eta * update
            staleness = version - int(fetch_vers.min())
            version += 1
            grad_norm2 = problem.grad_norm2(w)
            log.records.append(TrainRecord(
                time=apply_time, index=version, arch=arch,
                scheduled=(), z=0.0 if arch == CONV else math.nan,
                bottleneck=math.nan, latency=lat,
                participants=len(Ys), staleness=staleness,
                loss=0.5 * grad_norm2, grad_norm2=grad_norm2,
            ))

    n_ticks = int(math.ceil(horizon_s / T_p))
    for n in range(n_ticks):
        t_tick = n * T_p
        apply_batches(t_tick)
        idle = np.flatnonzero(busy_until <= t_tick + 1e-12)
        caches[idle] = w
        cache_ver[idle] = version
        Ys, e = quantize_ef(problem.stochastic_grads(caches, rng), e, spec)
        Z, T_c, I = draw_gates(taus[idle], model, rng)
        finish = T_c + taus[idle]
        # uploaders stay busy until their upload lands, the rest while computing
        busy_until[idle[Z]] = t_tick + np.where(I, finish, T_c)[Z]
        if I.any():
            up = idle[I][np.argsort(finish[I], kind="stable")]
            if np.any(pis[up] <= 0):
                raise ParameterError("upload from a zero-probability user")
            lat = finish[I].max()
            heapq.heappush(pending, (t_tick + lat, n, lat, Ys[up], pis[up],
                                     cache_ver[up]))
    apply_batches(horizon_s)
    return log
