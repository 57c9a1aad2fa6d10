"""Expected participant counts under a per-round deadline.

A user participates when compute time plus upload time fits the deadline.
With the radiator pinned over the user the link distance is always the
waveguide height, so the pinned count is distribution-free; the fixed-antenna
count depends on the position distribution through a deadline-limited
coverage radius.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .analytics import check_order
from .errors import ParameterError, UnsupportedDistributionError, _Checked
from .phy import (PhyParams, latency_inverse, spectral_efficiency,
                  upload_latency)
from .spatial import UNIFORM, DistributionSpec

DETERMINISTIC = "deterministic"
SHIFTED_EXPONENTIAL = "shifted_exponential"


# the positive half of the 64-point Gauss-Legendre rule on [-1, 1], nodes
# ascending, and their weights (Golub & Welsch, Math. Comp. 23, 1969): the
# bits of numpy.polynomial.legendre.leggauss(64), whose rule is an exact
# mirror image, so no run imports numpy.polynomial
_GL_NODES = np.array([
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054,
    0.16964442042399283, 0.21742364374000708, 0.2646871622087674,
    0.31132287199021097, 0.3572201583376681, 0.4022701579639916,
    0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573,
    0.6852363130542333, 0.7198818501716109, 0.7528199072605319,
    0.7839723589433414, 0.8132653151227975, 0.8406292962525803,
    0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538,
    0.973326827789911, 0.983336253884626, 0.9910133714767443,
    0.9963401167719552, 0.9993050417357722])
_GL_WEIGHTS = np.array([
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996,
    0.04799938859645842, 0.04754016571483042, 0.046968182816210076,
    0.04628479658131447, 0.045491627927418184, 0.044590558163756566,
    0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009,
    0.0354722132568823, 0.033805161837141794, 0.032057928354851495,
    0.030234657072402554, 0.028339672614259535, 0.02637746971505491,
    0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786,
    0.011168139460131028, 0.008846759826363397, 0.006504457968978502,
    0.004147033260564499, 0.00178328072169414])


def _mirrored(half: np.ndarray, sign: float) -> np.ndarray:
    """``half`` after its mirror image, ``sign`` times ``half`` reversed,
    read-only."""
    whole = np.concatenate((sign * half[::-1], half))
    whole.flags.writeable = False
    return whole


_GL_RULE = (_mirrored(_GL_NODES, -1.0), _mirrored(_GL_WEIGHTS, 1.0))


def _gauss_legendre() -> tuple:
    """64-point Gauss-Legendre nodes and weights on [-1, 1], read-only, as
    every caller shares them."""
    return _GL_RULE


def check_deadline(T_d):
    """``T_d``, one deadline or an array of them, if every one is finite and
    nonnegative; else ParameterError."""
    if not np.all(np.isfinite(T_d) & (T_d >= 0)):
        raise ParameterError("deadline T_d must be finite and nonnegative")
    return T_d


class _DeadlineModelFields(NamedTuple):
    T_d: float
    fc_kind: str = DETERMINISTIC
    t0: float = 0.0
    rate: float = 0.0
    p_s: float = 1.0


class DeadlineModel(_Checked, _DeadlineModelFields):
    """Deadline, compute-time CDF family, and trigger probability."""

    __slots__ = ()

    def _check(self):
        for name in ("T_d", "t0", "rate", "p_s"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        check_deadline(self.T_d)
        if self.t0 < 0:
            raise ParameterError("compute offset t0 must be nonnegative")
        if self.fc_kind not in (DETERMINISTIC, SHIFTED_EXPONENTIAL):
            raise ParameterError(f"unknown compute-time family {self.fc_kind!r}")
        if self.fc_kind == SHIFTED_EXPONENTIAL and self.rate <= 0:
            raise ParameterError("exponential rate must be positive")
        if not 0 < self.p_s <= 1:
            raise ParameterError("trigger probability p_s must lie in (0, 1]")

    def F_c(self, u):
        """Compute-time CDF at u, a scalar (a batch of one, returned as a
        numpy scalar) or an array.  The shifted exponential is written as
        -expm1(-rate s), which is zero exactly when rate s is."""
        s = np.array(u, dtype=float)
        if self.fc_kind == DETERMINISTIC:
            return np.where(s < self.t0, 0.0, 1.0)[()]
        s -= self.t0
        np.maximum(s, 0.0, out=s)  # -expm1(0) = 0 below t0
        s *= -self.rate
        np.expm1(s, out=s)
        return np.negative(s, out=s)[()]


class CoverageRadius(NamedTuple):
    """Closed-form coverage radius and its near-threshold behaviour."""

    rho: float
    kappa: float
    T_min: float
    T_max: float


class ParticipationReport(NamedTuple):
    """Expected participants under both architectures at one deadline, or
    arrays of them over an array of deadlines."""

    n_conv: float
    n_pa: float
    gap: float


def _radius(T, t0: float, phy: PhyParams, D: float):
    """Coverage radius at each deadline of ``T`` on a corridor of length D,
    with its thresholds T_min and T_max: the root of the coverage equation,
    0 below T_min and D/2 from T_max on, where the root may round one ulp
    below D/2.
    """
    c, S, d = phy.c, phy.S, phy.d
    T_min = t0 + upload_latency(c, 0.0, 0.0, S, d)
    T_max = t0 + upload_latency(c, D / 2.0, 0.0, S, d)
    rho = np.maximum(latency_inverse(c, T - t0, S, d), 0.0)
    rho = np.where(T >= T_max, D / 2.0, rho)
    return np.where(T < T_min, 0.0, rho), T_min, T_max


def coverage_radius(T_d: float, model: DeadlineModel, phy: PhyParams) -> CoverageRadius:
    """Deadline-limited coverage radius for the uniform corridor.

    Requires a deterministic compute time.  ``rho`` is the root of the
    coverage equation, clamped to 0 below T_min and capped at D/2 above
    T_max.  ``kappa`` is the square-root-law coefficient at the threshold.
    """
    check_deadline(T_d)
    if model.fc_kind != DETERMINISTIC:
        raise UnsupportedDistributionError(
            "closed-form coverage radius requires a deterministic compute time"
        )
    rho, T_min, T_max = _radius(T_d, model.t0, phy, phy.D)
    S, d, c = phy.S, phy.d, phy.c
    lam_d = spectral_efficiency(0.0, 0.0, S, d)
    kappa = (d**2 / math.sqrt(S)) * math.sqrt(1.0 + S / d**2) * lam_d * math.sqrt(
        math.log(2.0) / c
    )
    return CoverageRadius(rho=float(rho), kappa=kappa, T_min=T_min, T_max=T_max)


def gm_abs_cdf(rho: float, mu: float, sigma: float) -> float:
    """P(|X| <= rho) for the symmetric two-cluster Gaussian mixture."""

    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    a = phi((rho - mu) / sigma) - phi((-rho - mu) / sigma)
    b = phi((rho + mu) / sigma) - phi((-rho + mu) / sigma)
    return 0.5 * a + 0.5 * b


def _composite_rule(breaks, hi: float):
    """Nodes and weights of the composite Gauss-Legendre rule on [0, hi].

    Panels end at the ``breaks``, each clipped to [0, hi]; no panel is empty.
    """
    edges = sorted({min(max(b, 0.0), hi) for b in breaks} | {0.0, hi})
    lo, up = np.array(edges[:-1]), np.array(edges[1:])
    nodes, weights = _gauss_legendre()
    half = ((up - lo) / 2.0)[:, None]
    x = ((up + lo) / 2.0)[:, None] + half * nodes
    return x.ravel(), (half * weights).ravel()


def expected_participants(K: int, T_d, model: DeadlineModel,
                          spec: DistributionSpec, phy: PhyParams) -> ParticipationReport:
    """Expected participant counts for both architectures at each deadline
    of ``T_d``, an array or a scalar (a batch of one, returned as numpy
    scalars).

    Uniform or Gaussian-mixture positions with deterministic compute use the
    closed forms; the uniform corridor is ``spec.D``.  Under
    shifted-exponential compute the eligibility integral, which vanishes
    beyond the uncapped coverage root r, is summed over [0, r] (r capped at
    D/2 on the uniform corridor) by a composite 64-point Gauss-Legendre rule
    whose panels end where the integrand turns.  One inverse latency serves
    every deadline; the mixture CDF and the rule are taken per deadline.
    """
    K, _ = check_order(K)
    T = check_deadline(np.asarray(T_d, dtype=float))
    tau_pa = upload_latency(phy.c, 0.0, 0.0, phy.S, phy.d)
    n_pa = K * model.F_c(T - tau_pa)

    if model.fc_kind == DETERMINISTIC:
        if spec.kind == UNIFORM:
            rho = _radius(T, model.t0, phy, spec.D)[0]
            n_conv = K * np.minimum(2.0 * rho / spec.D, 1.0)
        else:
            rho = latency_inverse(phy.c, T - model.t0, phy.S, phy.d)
            n_conv = K * np.array([gm_abs_cdf(r, spec.mu, spec.sigma) for r
                                   in np.maximum(rho, 0.0).ravel().tolist()])
    else:
        # per deadline, the reach and where the compute-time CDF turns:
        # slack about 1/rate
        slack = np.array([0.0, *(4.0**j / model.rate for j in range(-1, 5))])
        ends = np.maximum(latency_inverse(
            phy.c, T.reshape(-1, 1) - slack - model.t0, phy.S, phy.d), 0.0)
        n_conv = np.empty(T.size)
        for i, (t, (reach, *breaks)) in enumerate(zip(T.ravel().tolist(),
                                                      ends.tolist())):
            if spec.kind == UNIFORM:
                x, w = _composite_rule(breaks, min(reach, spec.D / 2.0))
                dens = 1.0 / spec.D
            else:
                breaks += [spec.mu + k * spec.sigma for k in (-8, -4, 0, 4, 8)]
                x, w = _composite_rule(breaks, reach)
                two_var = 2.0 * spec.sigma**2
                dens = (np.exp(-((x - spec.mu) ** 2) / two_var)
                        + np.exp(-((x + spec.mu) ** 2) / two_var)) / (
                            2.0 * math.sqrt(2.0 * math.pi) * spec.sigma)
            eligible = model.F_c(t - upload_latency(phy.c, x, 0.0, phy.S, phy.d))
            # positions and eligibility are even in x: twice the integral
            # over x >= 0
            n_conv[i] = K * 2.0 * float(w @ (dens * eligible))

    n_conv = n_conv.reshape(T.shape)
    return ParticipationReport(n_conv=n_conv[()], n_pa=n_pa,
                               gap=(n_pa - n_conv)[()])
