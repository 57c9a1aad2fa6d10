"""Closed-form moments, bounds, and concentration for straggler distances.

All formulas are for K i.i.d. uniform positions on a corridor of length D.
The movable-radiator second moment is sandwiched between a minimum-spacing
lower bound and the smaller of two span-based upper bounds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ParameterError


class StragglerMomentReport(NamedTuple):
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
    if not (D > 0 and math.isfinite(D)):
        raise ParameterError("corridor length D must be positive and finite")
    m = M - 1
    half_sq = (D / 2.0) ** 2
    # the M-th offset is (D/2) U_(M); half the span of m spacings is
    # distributed as (D/2) U_(m)
    conv_E2 = half_sq * order_stat_moments(K, M)[1]
    pa_ub_avg = half_sq * (m / (K - m)) ** 2
    pa_ub_beta = half_sq * order_stat_moments(K, m)[1] if m else 0.0
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


def hoeffding_tail(K: int, eps: float) -> float:
    """Hoeffding bound 2 exp(-2 K eps^2) on the two-sided tail of the
    normalized M-th closest of K users around M/(K+1), via the binomial
    counting identity, for eps inside (0, min(p, 1-p)) at p = M/(K+1).
    """
    K, _ = check_order(K)
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"eps={eps}: need a positive finite deviation")
    return 2.0 * math.exp(-2.0 * K * eps**2)
