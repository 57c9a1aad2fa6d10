"""Expected participant counts under a per-round deadline.

A user participates when compute time plus upload time fits the deadline.
With the radiator pinned over the user the link distance is always the
waveguide height, so the pinned count is distribution-free; the fixed-antenna
count depends on the position distribution through a deadline-limited
coverage radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .analytics import check_order
from .errors import ParameterError, UnsupportedDistributionError
from .phy import PhyParams, spectral_efficiency, upload_latency
from .spatial import GAUSSIAN_MIXTURE, UNIFORM, DistributionSpec

DETERMINISTIC = "deterministic"
SHIFTED_EXPONENTIAL = "shifted_exponential"

# 64-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = leggauss(64)


@dataclass(frozen=True)
class DeadlineModel:
    """Deadline, compute-time CDF family, and trigger probability."""

    T_d: float
    fc_kind: str = DETERMINISTIC
    t0: float = 0.0
    rate: float = 0.0
    p_s: float = 1.0

    def __post_init__(self):
        if self.T_d < 0:
            raise ParameterError("deadline T_d must be nonnegative")
        if self.t0 < 0:
            raise ParameterError("compute offset t0 must be nonnegative")
        if self.fc_kind not in (DETERMINISTIC, SHIFTED_EXPONENTIAL):
            raise ParameterError(f"unknown compute-time family {self.fc_kind!r}")
        if self.fc_kind == SHIFTED_EXPONENTIAL and self.rate <= 0:
            raise ParameterError("exponential rate must be positive")
        if not 0 < self.p_s <= 1:
            raise ParameterError("trigger probability p_s must lie in (0, 1]")

    def F_c(self, u):
        """Compute-time CDF evaluated at u, a scalar or a numpy array.

        A scalar goes through ``math.exp``; an array goes through numpy's
        exp, which may differ from libm in the last bit.
        """
        if isinstance(u, np.ndarray):
            if self.fc_kind == DETERMINISTIC:
                return np.where(u < self.t0, 0.0, 1.0)
            s = np.maximum(u - self.t0, 0.0)  # 1 - exp(0) = 0 below t0
            s *= -self.rate
            np.exp(s, out=s)
            return np.subtract(1.0, s, out=s)
        if u < self.t0:
            return 0.0
        if self.fc_kind == DETERMINISTIC:
            return 1.0
        return 1.0 - math.exp(-self.rate * (u - self.t0))


@dataclass(frozen=True)
class CoverageRadius:
    """Closed-form coverage radius and its near-threshold behaviour."""

    rho: float
    rho_raw: float
    drho_dT: float
    kappa: float
    T_min: float
    T_max: float


@dataclass(frozen=True)
class ParticipationReport:
    """Expected participants under both architectures at one deadline."""

    n_conv: float
    n_pa: float
    gap: float
    rho: Optional[float]
    T_min: Optional[float]
    T_max: Optional[float]
    kappa: Optional[float]


def _rho_raw(T_d: float, t0: float, phy: PhyParams) -> float:
    """Uncapped root of the coverage equation; zero when nothing completes."""
    if T_d <= t0:
        return 0.0
    exponent = phy.c / (T_d - t0)
    if exponent > 1000.0:  # q - 1 would dwarf S: nothing completes
        return 0.0
    q = 2.0**exponent
    val = phy.S / (q - 1.0) - phy.d**2
    return math.sqrt(val) if val > 0 else 0.0


def coverage_radius(T_d: float, model: DeadlineModel, phy: PhyParams) -> CoverageRadius:
    """Deadline-limited coverage radius for the uniform corridor.

    Requires a deterministic compute time.  ``rho`` is clamped to 0 below
    T_min and capped at D/2 above T_max; ``rho_raw`` is the uncapped root.
    ``kappa`` is the square-root-law coefficient at the threshold.
    """
    if model.fc_kind != DETERMINISTIC:
        raise UnsupportedDistributionError(
            "closed-form coverage radius requires a deterministic compute time"
        )
    t0 = model.t0
    S, d, D, c = phy.S, phy.d, phy.D, phy.c
    T_min = t0 + upload_latency(c, 0.0, 0.0, S, d)
    T_max = t0 + upload_latency(c, D / 2.0, 0.0, S, d)
    rho_raw = _rho_raw(T_d, t0, phy)
    if T_d < T_min:
        rho, drho = 0.0, 0.0
    elif T_d >= T_max:
        rho, drho = D / 2.0, 0.0
    else:
        rho = rho_raw
        q = 2.0 ** (c / (T_d - t0))
        drho = (S * q * math.log(2.0) * c) / (
            2.0 * rho * (q - 1.0) ** 2 * (T_d - t0) ** 2
        ) if rho > 0 else math.inf
    lam_d = spectral_efficiency(0.0, 0.0, S, d)
    kappa = (d**2 / math.sqrt(S)) * math.sqrt(1.0 + S / d**2) * lam_d * math.sqrt(
        math.log(2.0) / c
    )
    return CoverageRadius(rho=rho, rho_raw=rho_raw, drho_dT=drho,
                          kappa=kappa, T_min=T_min, T_max=T_max)


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
    half = ((up - lo) / 2.0)[:, None]
    x = ((up + lo) / 2.0)[:, None] + half * _GL_NODES
    return x.ravel(), (half * _GL_WEIGHTS).ravel()


def expected_participants(K: int, T_d: float, model: DeadlineModel,
                          spec: DistributionSpec, phy: PhyParams) -> ParticipationReport:
    """Expected participant counts for both architectures at deadline T_d.

    Uniform or Gaussian-mixture positions with deterministic compute use the
    closed forms.  Under shifted-exponential compute the eligibility integral,
    which vanishes beyond rho_raw, is summed over [0, rho_raw] (capped at
    D/2 on the uniform corridor) by a composite 64-point Gauss-Legendre rule
    whose panels end where the integrand turns.
    """
    K, _ = check_order(K)
    tau_pa = upload_latency(phy.c, 0.0, 0.0, phy.S, phy.d)
    n_pa = K * model.F_c(T_d - tau_pa)

    rho = T_min = T_max = kappa = None
    if model.fc_kind == DETERMINISTIC:
        if spec.kind == UNIFORM:
            cov = coverage_radius(T_d, model, phy)
            rho, T_min, T_max, kappa = cov.rho, cov.T_min, cov.T_max, cov.kappa
            n_conv = K * min(2.0 * cov.rho / phy.D, 1.0)
        else:
            rho_raw = _rho_raw(T_d, model.t0, phy)
            rho = rho_raw
            T_min = model.t0 + tau_pa
            n_conv = K * gm_abs_cdf(rho_raw, spec.mu, spec.sigma)
    else:
        rho_raw = _rho_raw(T_d, model.t0, phy)
        # the compute-time CDF turns where the slack is about 1/rate
        breaks = [_rho_raw(T_d - 4.0**j / model.rate, model.t0, phy)
                  for j in range(-1, 5)]
        if spec.kind == UNIFORM:
            x, w = _composite_rule(breaks, min(rho_raw, spec.D / 2.0))
            dens = 1.0 / spec.D
        else:
            breaks += [spec.mu + k * spec.sigma for k in (-8, -4, 0, 4, 8)]
            x, w = _composite_rule(breaks, rho_raw)
            two_var = 2.0 * spec.sigma**2
            dens = (np.exp(-((x - spec.mu) ** 2) / two_var)
                    + np.exp(-((x + spec.mu) ** 2) / two_var)) / (
                        2.0 * math.sqrt(2.0 * math.pi) * spec.sigma)
        eligible = model.F_c(T_d - upload_latency(phy.c, x, 0.0, phy.S, phy.d))
        # positions and eligibility are even in x: twice the integral over x >= 0
        n_conv = K * 2.0 * float(w @ (dens * eligible))

    return ParticipationReport(n_conv=n_conv, n_pa=n_pa, gap=n_pa - n_conv,
                               rho=rho, T_min=T_min, T_max=T_max, kappa=kappa)


def mills_check(mu: float, sigma: float, rho: float, D: float) -> tuple:
    """Mills-ratio bound on the central mixture mass and the dominance test.

    Returns (mills_bound, condition_holds): the condition guarantees a larger
    pinning advantage under the mixture than under the uniform corridor.
    """
    if not 0 <= rho < mu:
        raise ParameterError("mills bound requires 0 <= rho < mu")
    if sigma <= 0 or D <= 0:
        raise ParameterError("sigma and D must be positive")
    bound = (sigma / math.sqrt(2.0 * math.pi)) * (
        math.exp(-((mu - rho) ** 2) / (2.0 * sigma**2)) / (mu - rho)
        + math.exp(-((mu + rho) ** 2) / (2.0 * sigma**2)) / (mu + rho)
    )
    return bound, bound <= 2.0 * rho / D
