"""Closed-form moments, bounds, and concentration for straggler distances.

All formulas are for K i.i.d. uniform positions on a corridor of length D.
The movable-radiator second moment is sandwiched between a minimum-spacing
lower bound and the smaller of two span-based upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

_CLAMP = 1e-15


@dataclass(frozen=True)
class StragglerMomentReport:
    """Second-moment report for one (K, M, D) operating point.

    conv_E2 is exact; pa_ub_avg / pa_ub_beta / pa_lb bracket the movable-
    radiator value; ratio_limit is the large-K ceiling of the PA/CONV ratio.
    """

    conv_E2: float
    pa_ub_avg: float
    pa_ub_beta: float
    pa_ub: float
    pa_lb: float
    ratio_limit: float


def check_order(K, M=1) -> tuple:
    """``(int(K), int(M))`` for K users and their M-th order statistic.

    Both must be integers (an integral float counts) with 1 <= M <= K;
    anything else raises ParameterError.
    """
    if not (1 <= M <= K and float(K).is_integer() and float(M).is_integer()):
        raise ParameterError(f"M={M}, K={K}: need integers with 1 <= M <= K")
    return int(K), int(M)


def order_stat_moments(K: int, M: int) -> tuple:
    """Mean and second moment of the M-th order statistic of K uniforms on [0,1]."""
    K, M = check_order(K, M)
    mean = M / (K + 1)
    second = M * (M + 1) / ((K + 1) * (K + 2))
    return mean, second


def min_spacing_second_moment(K: int) -> float:
    """Second moment of the minimum of the K+1 simple spacings."""
    K, _ = check_order(K)
    return 2.0 / ((K + 1) ** 3 * (K + 2))


def straggler_moments(K: int, M: int, D: float) -> StragglerMomentReport:
    """Exact CONV second moment and the PA moment sandwich at (K, M, D)."""
    K, M = check_order(K, M)
    if D <= 0:
        raise ParameterError("corridor length D must be positive")
    m = M - 1
    half_sq = (D / 2.0) ** 2
    conv_E2 = half_sq * M * (M + 1) / ((K + 1) * (K + 2))
    pa_ub_avg = half_sq * (m / (K - m)) ** 2
    pa_ub_beta = half_sq * m * (m + 1) / ((K + 1) * (K + 2))
    pa_lb = half_sq * m**2 * 2.0 / ((K + 1) ** 3 * (K + 2))
    ratio_limit = m**2 / (M * (M + 1))
    return StragglerMomentReport(
        conv_E2=conv_E2,
        pa_ub_avg=pa_ub_avg,
        pa_ub_beta=pa_ub_beta,
        pa_ub=min(pa_ub_avg, pa_ub_beta),
        pa_lb=pa_lb,
        ratio_limit=ratio_limit,
    )


def _kl_bernoulli(p: float, q: float) -> float:
    """KL divergence D(p || q) between Bernoulli laws, in nats.

    Uses the 0*log(0/q) = 0 convention; arguments are clamped away from
    {0, 1} to avoid log singularities.
    """
    p = min(max(p, _CLAMP), 1.0 - _CLAMP)
    q = min(max(q, _CLAMP), 1.0 - _CLAMP)
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def concentration_bounds(K: int, M: int, eps: float) -> tuple:
    """Tail bounds for the normalized M-th closest user around M/(K+1).

    Returns (kl_lower_tail, kl_upper_tail, hoeffding_two_sided) via the
    binomial counting identity plus Chernoff/Hoeffding.
    """
    K, M = check_order(K, M)
    p_dag = M / (K + 1)
    if not 0 < eps < min(p_dag, 1.0 - p_dag):
        raise ParameterError(f"eps={eps} outside (0, min(p, 1-p)) for p={p_dag}")
    kl_lower = math.exp(-K * _kl_bernoulli(M / K, p_dag - eps))
    kl_upper = math.exp(-K * _kl_bernoulli((M - 1) / K, p_dag + eps))
    hoeffding = 2.0 * math.exp(-2.0 * K * eps**2)
    return kl_lower, kl_upper, hoeffding
