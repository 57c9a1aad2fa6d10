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
from functools import cached_property
from typing import List, NamedTuple, Optional

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; pay that at import

from .analytics import check_order
from .errors import DivergenceError, ParameterError, _Checked
from .participation import DETERMINISTIC, DeadlineModel
from .phy import PhyParams, upload_latency
from .spatial import CONV, PA, bottlenecks, schedule_round  # PA re-exported

_ALPHA_CAP = 1.0 - 1e-6
# largest row scale whose 2 s is finite
_S_MAX = np.array(np.finfo(float).max / 2.0)
MAX_BITS = 53  # the largest b whose top level index 2^b - 1 is an exact double
# the per-step kernels' constant operands as 0-d float64 arrays: numpy 2 gives
# a Python float weak-scalar promotion on every ufunc call, which costs more
# than the arithmetic on a (40, 8) batch
_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)


def _grid(b) -> tuple:
    """Top level index ``2^b - 1`` of a b-bit quantizer and half of it, as
    0-d float arrays; b must be an integer (an integral float counts) in
    [1, MAX_BITS]."""
    if not (1 <= b <= MAX_BITS and float(b).is_integer()):
        raise ParameterError(f"bit budget b={b!r}: need an integer with "
                             f"1 <= b <= {MAX_BITS}")
    top = float(2 ** int(b) - 1)
    return np.array(top), np.array(top / 2.0)


class _QuantizerSpecFields(NamedTuple):
    b: int
    c_q: float = 1.0


class QuantizerSpec(_Checked, _QuantizerSpecFields):
    """Per-coordinate bit budget and the high-rate fidelity model.

    ``b`` is an integer with 1 <= b <= 53 (``MAX_BITS``), so that every grid
    index is an exact double.  The quantizer is the identity (lossless) mode
    used in tests iff ``c_q = 0``; any ``c_q > 0`` quantizes, also where
    ``alpha`` rounds to 1.
    """

    __slots__ = ()

    def _check(self):
        _grid(self.b)
        if not 0 <= self.c_q < math.inf:
            raise ParameterError("high-rate constant c_q must be nonnegative "
                                 "and finite")

    @property
    def alpha(self) -> float:
        """Fidelity 1 - min(c_q * 2^(-2b), cap); equals 1 in identity mode."""
        return 1.0 - min(self.c_q * 2.0 ** (-2 * self.b), _ALPHA_CAP)

    @property
    def _ef_grid(self):
        """``_grid(b)`` for ``_ef_kernel``, None in identity mode."""
        return None if self.c_q == 0 else _grid(self.b)


def inclusion_probability(tau, model: DeadlineModel):
    """Unconditional inclusion probability p_s * F_c(T_d - tau) of each
    upload time in ``tau``, a scalar (a batch of one) or an array."""
    tau = np.asarray(tau, dtype=float)
    if (tau < 0).any():
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
    Z, T_c, I, _ = _gate_kernel(taus, *_gate_params(model), rng)
    return Z, np.full(taus.shape, T_c), I


def _gate_params(model: DeadlineModel) -> tuple:
    """``(p_s, t0, 1/rate, T_d)`` of ``model`` for ``_gate_kernel``: p_s, t0
    and T_d as 0-d float arrays, 1/rate a float for the generator or None
    under deterministic compute."""
    scale = None if model.fc_kind == DETERMINISTIC else 1.0 / model.rate
    return (np.array(float(model.p_s)), np.array(float(model.t0)), scale,
            np.array(float(model.T_d)))


def _gate_kernel(taus: np.ndarray, p_s, t0, scale, T_d, rng):
    """``draw_gates`` on a float array, plus the finishing times T_c + tau.

    Under deterministic compute (``scale`` None) T_c is t0, 0-d."""
    Z = rng.random(taus.shape) < p_s
    if scale is None:
        T_c = t0
    else:
        T_c = np.full(taus.shape, t0)
        T_c[Z] += rng.exponential(scale, size=np.count_nonzero(Z))
    finish = T_c + taus
    return Z, T_c, Z & (finish <= T_d), finish


def quantize(v: np.ndarray, b: int) -> np.ndarray:
    """Symmetric uniform quantizer on the last axis: 2^b levels evenly spaced
    on [-s, s] with per-row scale s = max|v|, rounding half away from zero.

    A row whose grid step is zero (all zeros, or so small that the step
    underflows) is returned as is, with zeros as +0.  A row holding a NaN, an
    infinity or a scale above half the largest float, where 2 s overflows,
    raises ParameterError, and so does a bit budget outside [1, MAX_BITS] or
    a 0-d input, which has no last axis.
    """
    v = _rows(v)
    return _quantize_kernel(v, *_grid(b), _workspace(v.shape))


def _rows(v) -> np.ndarray:
    """``v`` as a float array with a last axis to quantize along."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        raise ParameterError("quantizer input must have a last axis: a 0-d "
                             "value is no row; pass it as a 1-element vector")
    return v


def _workspace(shape) -> tuple:
    """Three float arrays of ``shape`` for ``_quantize_kernel``."""
    return np.empty(shape), np.empty(shape), np.empty(shape)


def _quantize_kernel(v: np.ndarray, top, half, work: tuple) -> np.ndarray:
    """``quantize`` on a float array, with ``(top, half)`` from ``_grid``.

    ``work`` is three float arrays of v's shape, from ``_workspace``, whose
    contents do not matter.  The result is the first of them (a new array
    when some row's grid step is zero), so the next call on the same
    workspace overwrites it.  v itself is not written."""
    q, s_full, step_full = work
    np.abs(v, out=q)
    s = np.maximum.reduce(q, axis=-1, keepdims=True, initial=0.0)
    # a NaN fails the comparison too
    if np.count_nonzero(s <= _S_MAX) != s.size:
        raise ParameterError("quantizer input must be finite, with max|v| "
                             "at most half the largest float")
    # scale and step at q's full shape: on rows of a few entries a same-shape
    # ufunc call costs a third of a (rows, 1) broadcast
    np.copyto(s_full, s)
    # 2 s / (n - 1) bit for bit, as 2 s and (n - 1) / 2 are both exact
    np.divide(s_full, half, out=step_full)
    # a row whose step underflows to zero comes back as is; until then it
    # takes a unit step.  Most calls have no such row and build no mask
    exact = (None if np.count_nonzero(step_full) == step_full.size
             else step_full == 0.0)
    if exact is not None:
        step_full[exact] = 1.0
    # quantize |v| on the symmetric grid in place, then restore signs; rounding
    # up on the magnitude axis is round-half-away-from-zero on the original axis
    q += s_full
    q /= step_full
    q += _HALF
    np.floor(q, out=q)  # at least 0, so only the top level needs a clip
    np.minimum(q, top, out=q)
    q *= step_full
    q -= s_full
    # times the sign of v as an exact ±1, with -0.0 inputs counted as +0.0 so
    # that they keep q's own sign.  Copying v's sign onto q instead would flip
    # a zero entry's grid value, about ±step/2 by the rounding of s/step
    sign = np.add(v, _ZERO, out=s_full)
    q *= np.copysign(_ONE, sign, out=sign)
    return q if exact is None else np.where(exact, v + 0.0, q)


def quantize_ef(g: np.ndarray, e: np.ndarray, spec: QuantizerSpec):
    """One error-feedback step: Y = Q(g + e), next residual is (g + e) - Y.

    Rows of a (K, d) array are independent users; a 0-d input, which has
    no last axis, raises ParameterError."""
    g, e = _rows(g), _rows(e)
    if g.shape != e.shape:
        raise ParameterError("gradient and residual must share a shape")
    e_next = np.zeros_like(g)
    return _ef_kernel(g + e, e_next, spec._ef_grid, _workspace(g.shape)), e_next


def _ef_kernel(v: np.ndarray, e: np.ndarray, grid, work: tuple) -> np.ndarray:
    """``quantize_ef`` on v = g + e: returns Y = Q(v), computed in the
    quantizer workspace ``work``, and writes the next residual v - Y into
    ``e``.  With ``grid`` None (identity mode) Y is v itself and ``e`` is
    left as it is."""
    if grid is None:
        return v
    Y = _quantize_kernel(v, *grid, work)
    np.subtract(v, Y, out=e)
    return Y


def ht_aggregate(entries, K: int) -> np.ndarray:
    """Inverse-probability aggregate (1/K) sum_i I_i Y_i / pi_i over
    (I, pi, Y) entries, summed in entry order.  An entry with I != 0 needs
    pi in (0, 1]; an excluded one may have any pi."""
    if K < 1:
        raise ParameterError("K must be at least 1")
    if not entries:
        return np.zeros(0)
    I, pi, Y = zip(*entries)
    I, pi = np.asarray(I, dtype=float), np.asarray(pi, dtype=float)
    Y = _updates(Y)
    inc = I != 0
    pi = pi[inc]
    # a NaN fails the comparisons too
    if not ((pi > 0) & (pi <= 1)).all():
        raise ParameterError("an included entry needs an inclusion "
                             "probability in (0, 1]")
    # I Y, then / pi, so every indicator value keeps the rounding of (I Y) / pi
    return _ht_kernel(pi, (I[inc] * Y[inc].T).T, K)


def _ht_kernel(pi: np.ndarray, Y: np.ndarray, K) -> np.ndarray:
    """``ht_aggregate`` over the included rows only: pi (n,), Y (n, ...).

    Every pi must lie in (0, 1]; the kernel does not check.
    ``ht_aggregate`` checks each call, ``run_afl`` once per run."""
    if not pi.size:
        return np.zeros(Y.shape[1:])
    # accumulate adds row by row; sum(axis=0) may pair rows up and round
    # differently
    return np.add.accumulate((Y.T / pi).T, axis=0)[-1] / K


def _updates(Ys) -> np.ndarray:
    """The updates ``Ys`` stacked into one float array; ParameterError unless
    they share one shape."""
    Ys = [np.asarray(Y, dtype=float) for Y in Ys]
    shapes = {Y.shape for Y in Ys}
    if len(shapes) > 1:
        raise ParameterError(f"updates must share one shape, got "
                             f"{sorted(shapes)}")
    return np.array(Ys)


def ht_second_moment_exact(Ys, pis, K: int) -> float:
    """Exact conditional second moment of the aggregate for fixed updates,
    one inclusion probability in (0, 1] per update."""
    if K < 1:
        raise ParameterError("K must be at least 1")
    Ys = _updates(Ys)
    pis = np.asarray(pis, dtype=float)
    if pis.shape != (len(Ys),):
        raise ParameterError(f"need one inclusion probability per update: "
                             f"{len(Ys)} updates, pis of shape {pis.shape}")
    # a NaN fails the comparisons too
    if not ((pis > 0) & (pis <= 1)).all():
        raise ParameterError("inclusion probabilities must lie in (0, 1]")
    total = np.sum(Ys, axis=0)
    norms = np.array([float(np.dot(Y, Y)) for Y in Ys])
    return float(np.dot(total, total) + np.sum((1.0 / pis - 1.0) * norms)) / K**2


class ConvergenceReport(NamedTuple):
    """Stepsize bounds and error floors."""

    xi_safe: float
    eta_max: float
    variance_floor: float
    ef_floor: float
    eta_max_stale: Optional[float] = None


def convergence_constants(L: float, eta: float, xi: float, spec: QuantizerSpec,
                          sigma2: float = 0.0, delta2: float = 0.0,
                          G2: float = 0.0, delta_max: Optional[float] = None
                          ) -> ConvergenceReport:
    """Lyapunov-descent constants for one operating point.

    ``sigma2``/``delta2``/``G2`` feed the variance and error-feedback floors,
    and ``delta_max`` adds the staleness-limited stepsize bound
    0.25 / (L (1 + delta_max)).  The error-feedback floor goes through the
    compression contraction rho_b and the Lyapunov weights A_plus and
    lambda_min.
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
    A_plus = 1.0 / L + 1.5 * L * eta**2 * xi
    lambda_min = A_plus * (1.0 + rho_b) / (1.0 - rho_b)
    eta_max_stale = None
    if delta_max is not None:
        if delta_max < 0:
            raise ParameterError("delta_max must be nonnegative")
        eta_max_stale = 0.25 / (L * (1.0 + delta_max))
    return ConvergenceReport(
        xi_safe=xi, eta_max=1.0 / (L * (1.0 + 3.0 * xi)),
        variance_floor=1.5 * L * eta**2 * xi * (sigma2 + delta2),
        ef_floor=(lambda_min + A_plus) * c1 * (1.0 - alpha) * (G2 + sigma2),
        eta_max_stale=eta_max_stale,
    )


class _SyntheticProblemFields(NamedTuple):
    centers: np.ndarray
    noise_sigma: float


class SyntheticProblem(_Checked, _SyntheticProblemFields):
    """K local quadratics f_i(w) = ||w - c_i||^2 / 2 with Gaussian gradient noise.

    The smoothness constant is exactly 1, and so is the gradient-dominance
    constant ``mu``, a class constant.  A user's noisy gradient at w is
    (w - c_i) plus N(0, noise_sigma^2 / d_w) in each coordinate, drawn by the
    training loops through ``_grads_kernel``.  An instance keeps a
    ``__dict__``, for the cached ``w_star``.
    """

    mu = 1.0

    def __new__(cls, centers, noise_sigma):
        # a private read-only copy, so the cached w_star cannot go stale
        centers = np.array(centers, dtype=float)
        centers.flags.writeable = False
        return super().__new__(cls, centers, noise_sigma)

    def _check(self):
        if self.centers.ndim != 2 or not self.centers.size:
            raise ParameterError("centers must be a nonempty (K, d_w) array")
        if not np.isfinite(self.centers).all():
            raise ParameterError("centers must be finite")
        if not 0 <= self.noise_sigma < math.inf:
            raise ParameterError("noise_sigma must be nonnegative and finite")

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

    def grad_norm2(self, w: np.ndarray) -> float:
        diff = np.asarray(w) - self.w_star
        return float(np.dot(diff, diff))

    @property
    def _noise_scale(self) -> float:
        """Standard deviation of each gradient coordinate's noise."""
        return self.noise_sigma / math.sqrt(self.d_w)

    def initial_point(self) -> np.ndarray:
        """The training loops' start, with F(w) - F* equal to 1 exactly."""
        return self.w_star + math.sqrt(2.0 / self.d_w) * np.ones(self.d_w)


def _grads_kernel(ws: np.ndarray, centers: np.ndarray, scale: float, rng,
                  out: np.ndarray) -> np.ndarray:
    """Every user's noisy gradient (ws - centers) + noise into ``out``; ws
    is (K, d_w) or a single point that broadcasts."""
    noise = rng.normal(0.0, scale, size=centers.shape)
    np.subtract(ws, centers, out=out)
    out += noise
    return out


def make_synthetic_problem(K: int, d_w: int, delta2_target: float,
                           noise_sigma: float, seed: int) -> SyntheticProblem:
    """Random centers rescaled so the heterogeneity level is hit exactly."""
    if K < 1 or d_w < 1:
        raise ParameterError("K and d_w must be at least 1")
    if delta2_target < 0:
        raise ParameterError("delta2_target must be nonnegative")
    if delta2_target > 0 and K == 1:
        raise ParameterError("delta2_target > 0 needs K >= 2: one user's "
                             "centre is the mean, with no spread to scale")
    rng = np.random.default_rng(seed)
    if delta2_target == 0.0:
        centers = np.zeros((K, d_w))
    else:
        raw = rng.normal(size=(K, d_w))
        raw -= raw.mean(axis=0)
        current = np.mean(np.sum(raw**2, axis=1))
        centers = raw * math.sqrt(delta2_target / current)
    return SyntheticProblem(centers=centers, noise_sigma=noise_sigma)


class TrainRecord(NamedTuple):
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


class TrainLog:
    """Event records; times are nondecreasing."""

    records: List[TrainRecord]

    def __init__(self):
        self.records = []

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


def _check_run(problem: SyntheticProblem, xs, eta) -> tuple:
    """Positions and stepsize of a training run, validated, and its start
    point: ``(xs, eta, w)`` with eta a 0-d float array and w
    ``problem.initial_point()``."""
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (problem.K,):
        raise ParameterError(f"xs must be a ({problem.K},) array of positions")
    if not np.isfinite(xs).all():
        raise ParameterError("xs must hold finite positions")
    if not 0 < eta < math.inf:
        raise ParameterError(f"eta={eta!r}: the stepsize must be positive "
                             f"and finite")
    return xs, np.array(float(eta)), problem.initial_point()


def run_sfl(problem: SyntheticProblem, xs: np.ndarray, phy: PhyParams,
            M: int, eta: float, spec: QuantizerSpec, rounds: int, arch: str,
            seed: int) -> TrainLog:
    """Synchronous training: M scheduled users, bandwidth split 1/M.

    Every user's gradient noise is drawn each round, but only the scheduled
    users carry an error-feedback residual; their updates are averaged with
    uniform 1/M weights.  The round time is the slowest scheduled upload,
    at the round's bottleneck offset.
    """
    _, M = check_order(problem.K, M)
    xs, eta, w = _check_run(problem, xs, eta)
    if not (rounds >= 1 and float(rounds).is_integer()):
        raise ParameterError(f"rounds={rounds!r}: need an integer >= 1")
    sched, z = schedule_round(xs, M, arch)
    scheduled = tuple(int(i) for i in sched)
    # a CCDF trial's bottleneck on this row, the cost of the scheduled
    # window's two ends; + 0.0 turns a -0.0 into 0.0
    bottleneck = float(bottlenecks(np.sort(xs[sched])[None, [0, -1]], 2,
                                   arch)[0]) + 0.0
    round_time = float(upload_latency(phy.c_round(M), bottleneck, 0.0, phy.S,
                                      phy.d))

    rng = np.random.default_rng(seed)
    e = np.zeros((M, problem.d_w))
    # the round kernels' inputs, fixed for the run, and their buffers
    centers, scale, grid = problem.centers, problem._noise_scale, spec._ef_grid
    grads = np.empty_like(centers)
    v = np.empty_like(e)
    work = _workspace(e.shape)
    divisor = np.array(float(M))
    log = TrainLog()
    t = 0.0
    grad_norm2 = problem.grad_norm2(w)
    # an overflow shows as a non-finite loss, which raises DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for rnd in range(int(rounds)):
            _grads_kernel(w, centers, scale, rng, grads)
            np.take(grads, sched, axis=0, out=v)
            v += e
            # the sum over rows divided by M is the bits of their mean
            w = w - eta * (np.add.reduce(_ef_kernel(v, e, grid, work), axis=0)
                           / divisor)
            t += round_time
            # this round's post-update norm is the next round's pre-update norm
            pre, grad_norm2 = grad_norm2, problem.grad_norm2(w)
            loss = 0.5 * grad_norm2
            if not math.isfinite(loss):
                raise DivergenceError(f"round {rnd} at t={t!r} s: loss "
                                      f"{loss!r} with eta={float(eta)!r}")
            log.records.append(TrainRecord(
                time=t, index=rnd, arch=arch, scheduled=scheduled,
                z=float(z), bottleneck=bottleneck, latency=round_time,
                participants=M, staleness=0, loss=loss, grad_norm2=pre,
            ))
    return log


def run_afl(problem: SyntheticProblem, xs: np.ndarray, phy: PhyParams,
            model: DeadlineModel, eta: float, spec: QuantizerSpec,
            horizon_s: float, arch: str, seed: int, weighting: str = "HT",
            tick_period: Optional[float] = None) -> TrainLog:
    """Asynchronous training driven by a periodic trigger.

    Each tick, idle users refresh their model cache, every user runs the
    error-feedback recursion on its cache, and idle users pass the two-stage
    gate (Bernoulli trigger, compute-plus-upload deadline).  Uploads that meet
    the deadline are batched into one inverse-probability (or uniform) update
    applied when the last of them arrives; users stay busy until their upload
    lands, so slow links carry stale caches.
    """
    xs, eta, w = _check_run(problem, xs, eta)
    if weighting not in ("HT", "uniform"):
        raise ParameterError(f"unknown weighting {weighting!r}")
    if not 0 < horizon_s < math.inf:
        raise ParameterError(f"horizon_s={horizon_s!r}: the horizon must be "
                             f"positive and finite")
    T_p = model.T_d if tick_period is None else tick_period
    if not 0 < T_p < math.inf:
        raise ParameterError(f"tick_period={T_p!r}: the tick period must be "
                             f"positive and finite")
    if not horizon_s / T_p < math.inf:
        raise ParameterError(f"tick_period={T_p!r} is too small: horizon_s / "
                             f"tick_period overflows")

    K = problem.K
    # each upload is the round of one user: CONV serves it at |x|, PA pins
    # the radiator over it
    taus = upload_latency(phy.c, bottlenecks(xs[:, None], 1, arch), 0.0,
                          phy.S, phy.d)
    pis = inclusion_probability(taus, model)
    # HT divides each upload by its inclusion probability, uniform by 1
    weights = pis if weighting == "HT" else np.ones(K)
    # pi is fixed for the run, so the kernel never checks it: only a run
    # with a zero one checks its uploads
    check_pis = not (pis > 0).all()

    rng = np.random.default_rng(seed)
    e = np.zeros_like(problem.centers)
    caches = np.tile(w, (K, 1))
    busy_until = np.zeros(K)
    version = 0
    # the tick kernels' inputs, fixed for the run, and their buffers
    centers, scale, grid = problem.centers, problem._noise_scale, spec._ef_grid
    gate = _gate_params(model)
    divisor = np.array(float(K)) if weighting == "HT" else None
    v = np.empty_like(centers)
    work = _workspace(centers.shape)
    # heap of (apply time, tick, batch latency, updates, their weights, the
    # version their caches fetched, which every uploader, being idle,
    # refreshed that tick), uploads in arrival order; the tick breaks ties.
    # The updates are a copy, not a view of the quantizer workspace
    pending: list = []
    log = TrainLog()

    def apply_batches(up_to: float):
        nonlocal w, version
        while pending and pending[0][0] <= up_to:
            apply_time, _, lat, Ys, up_w, fetch_ver = heapq.heappop(pending)
            w = w - eta * _ht_kernel(up_w, Ys, divisor or len(Ys))
            staleness = version - fetch_ver
            version += 1
            grad_norm2 = problem.grad_norm2(w)
            loss = 0.5 * grad_norm2
            if not math.isfinite(loss):
                raise DivergenceError(f"event {version} at "
                                      f"t={float(apply_time)!r} s: loss "
                                      f"{loss!r} with eta={float(eta)!r}")
            log.records.append(TrainRecord(
                time=apply_time, index=version, arch=arch,
                scheduled=(), z=0.0 if arch == CONV else math.nan,
                bottleneck=math.nan, latency=lat,
                participants=len(Ys), staleness=staleness,
                loss=loss, grad_norm2=grad_norm2,
            ))

    n_ticks = int(math.ceil(horizon_s / T_p))
    # as in run_sfl, an overflow shows as a non-finite loss
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_ticks):
            t_tick = n * T_p
            if pending and pending[0][0] <= t_tick:
                apply_batches(t_tick)
            idle = (busy_until <= t_tick + 1e-12).nonzero()[0]
            caches[idle] = w
            _grads_kernel(caches, centers, scale, rng, v)
            v += e
            Ys = _ef_kernel(v, e, grid, work)
            Z, T_c, I, finish = _gate_kernel(taus[idle], *gate, rng)
            # uploaders stay busy until their upload lands, the rest while
            # computing
            busy_until[idle[Z]] = t_tick + np.where(I, finish, T_c)[Z]
            if np.count_nonzero(I):
                up_finish = finish[I]
                order = up_finish.argsort(kind="stable")
                up = idle[I][order]
                if check_pis and not (pis[up] > 0).all():
                    raise ParameterError("upload from a zero-probability user")
                lat = up_finish[order[-1]]  # the last upload to land
                heapq.heappush(pending, (t_tick + lat, n, lat, Ys[up],
                                         weights[up], version))
        apply_batches(horizon_s)
    return log
