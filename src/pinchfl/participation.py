"""Expected participant counts under a per-round deadline.

A user participates when compute time plus upload time fits the deadline.
With the radiator pinned over the user the link distance is always the
waveguide height, so the pinned count is distribution-free; the fixed-antenna
count depends on the position distribution through a deadline-limited
coverage radius.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre() -> tuple:
    """64-point Gauss-Legendre nodes and weights on [-1, 1], read-only, as
    every caller shares them.

    Built on first use: only the shifted-exponential closed forms sum a rule,
    so no other run pays the import of ``numpy.polynomial``.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(64)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


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
    """Expected participants under both architectures at one deadline."""

    n_conv: float
    n_pa: float
    gap: float


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
    t0 = model.t0
    S, d, D, c = phy.S, phy.d, phy.D, phy.c
    T_min = t0 + upload_latency(c, 0.0, 0.0, S, d)
    T_max = t0 + upload_latency(c, D / 2.0, 0.0, S, d)
    rho = (0.0 if T_d < T_min else D / 2.0 if T_d >= T_max
           else max(float(latency_inverse(c, T_d - t0, S, d)), 0.0))
    lam_d = spectral_efficiency(0.0, 0.0, S, d)
    kappa = (d**2 / math.sqrt(S)) * math.sqrt(1.0 + S / d**2) * lam_d * math.sqrt(
        math.log(2.0) / c
    )
    return CoverageRadius(rho=rho, kappa=kappa, T_min=T_min, T_max=T_max)


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


def expected_participants(K: int, T_d: float, model: DeadlineModel,
                          spec: DistributionSpec, phy: PhyParams) -> ParticipationReport:
    """Expected participant counts for both architectures at deadline T_d.

    Uniform or Gaussian-mixture positions with deterministic compute use the
    closed forms.  Under shifted-exponential compute the eligibility integral,
    which vanishes beyond the uncapped coverage root r, is summed over
    [0, r] (r capped at D/2 on the uniform corridor) by a composite 64-point
    Gauss-Legendre rule whose panels end where the integrand turns.
    """
    K, _ = check_order(K)
    check_deadline(T_d)
    tau_pa = upload_latency(phy.c, 0.0, 0.0, phy.S, phy.d)
    n_pa = K * model.F_c(T_d - tau_pa)

    if model.fc_kind == DETERMINISTIC:
        if spec.kind == UNIFORM:
            cov = coverage_radius(T_d, model, phy)
            n_conv = K * min(2.0 * cov.rho / phy.D, 1.0)
        else:
            rho = latency_inverse(phy.c, T_d - model.t0, phy.S, phy.d)
            n_conv = K * gm_abs_cdf(max(float(rho), 0.0), spec.mu, spec.sigma)
    else:
        # the reach, and where the compute-time CDF turns: slack about 1/rate
        ends = [T_d, *(T_d - 4.0**j / model.rate for j in range(-1, 5))]
        reach, *breaks = np.maximum(latency_inverse(
            phy.c, np.subtract(ends, model.t0), phy.S, phy.d), 0.0).tolist()
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
        eligible = model.F_c(T_d - upload_latency(phy.c, x, 0.0, phy.S, phy.d))
        # positions and eligibility are even in x: twice the integral over x >= 0
        n_conv = K * 2.0 * float(w @ (dens * eligible))

    return ParticipationReport(n_conv=n_conv, n_pa=n_pa, gap=n_pa - n_conv)
