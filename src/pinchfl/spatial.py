"""User positions, the round schedule, and straggler-offset geometry.

A position sample is a plain (K,) array on a 1-D corridor, a batch (n, K).
This module decides where the radiator sits: the fixed antenna stays at the
origin, the pinched one moves to the midpoint of the tightest window of M
consecutive sorted users.  Their bottlenecks are the M-th smallest absolute
offset and half that window's span.  The minimum spacing of sorted
unit-interval points is the smallest of their K+1 gaps, edge gaps included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; pay that at import

from .analytics import check_order
from .errors import ParameterError

UNIFORM = "uniform"
GAUSSIAN_MIXTURE = "gaussian_mixture"

CONV = "CONV"  # fixed radiator at the origin
PA = "PA"      # pinched radiator, movable along the waveguide


@dataclass(frozen=True)
class DistributionSpec:
    """Spatial distribution of user x-coordinates.

    ``uniform``: i.i.d. on [-D/2, D/2].
    ``gaussian_mixture``: fair coin picks the +mu or -mu cluster, then a
    Gaussian(center, sigma^2) draw, unclipped.
    """

    kind: str
    D: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in (UNIFORM, GAUSSIAN_MIXTURE):
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        if self.kind == UNIFORM and self.D <= 0:
            raise ParameterError("uniform corridor length D must be positive")
        if self.kind == GAUSSIAN_MIXTURE:
            if self.sigma <= 0:
                raise ParameterError("cluster sigma must be positive")
            if self.mu < 0:
                raise ParameterError("cluster offset mu must be nonnegative")


def draw_positions(rng, spec: DistributionSpec, size) -> np.ndarray:
    """Array of i.i.d. user positions from ``spec`` with shape ``size``."""
    if spec.kind == UNIFORM:
        return rng.uniform(-spec.D / 2.0, spec.D / 2.0, size=size)
    centers = np.where(rng.random(size) < 0.5, -spec.mu, spec.mu)
    return centers + rng.normal(0.0, spec.sigma, size=size)


def sample_positions(spec: DistributionSpec, K: int, seed: int) -> np.ndarray:
    """Draw K i.i.d. user positions from ``spec`` with a fixed seed: a (K,) array."""
    if K < 1:
        raise ParameterError("K must be at least 1")
    return draw_positions(np.random.default_rng(seed), spec, K)


def conv_offsets(xs: np.ndarray, M) -> np.ndarray:
    """M-th smallest absolute offset on the last axis of ``xs``.

    ``M`` may be a sequence, which adds a trailing axis with one entry per M
    and sorts each row once for all of them.
    """
    return np.sort(np.abs(xs), axis=-1)[..., np.asarray(M, dtype=int) - 1]


def _spans(sorted_xs: np.ndarray, M: int) -> np.ndarray:
    """Span of every M-window of consecutive sorted positions (last axis),
    one entry per start index.  The result keeps the input's memory layout."""
    K = sorted_xs.shape[-1]
    return sorted_xs[..., M - 1:] - sorted_xs[..., : K - M + 1]


def pa_offsets(sorted_xs: np.ndarray, M: int) -> np.ndarray:
    """Half the span of the tightest M-window of each sorted row (last axis).

    On a Fortran-ordered batch the spans of one start index form a
    contiguous column, so the minimum runs over n-long columns; the result
    does not depend on the layout, bit for bit.
    """
    return _spans(sorted_xs, M).min(axis=-1) / 2.0


def schedule_round(xs: np.ndarray, M: int, arch: str):
    """Scheduled user indices (ascending) and radiator position for one round.

    Fixed antenna: the M smallest absolute offsets, radiator at the origin.
    Pinched antenna: the tightest window of M consecutive sorted positions,
    radiator at its midpoint; ties between windows go to the lowest start.
    For M=1 the window is degenerate and the radiator sits on the user.
    """
    if arch not in (CONV, PA):
        raise ParameterError(f"unknown architecture {arch!r}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ParameterError("xs must be a 1-D array")
    _, M = check_order(xs.size, M)
    if arch == CONV:
        return np.sort(np.argsort(np.abs(xs), kind="stable")[:M]), 0.0
    order = np.argsort(xs, kind="stable")
    srt = xs[order]
    i = int(_spans(srt, M).argmin())
    return np.sort(order[i:i + M]), float(0.5 * (srt[i] + srt[i + M - 1]))


def min_spacings(sorted_u: np.ndarray) -> np.ndarray:
    """Minimum of the K+1 spacings of each sorted row of points in [0, 1]
    (last axis): the K-1 interior gaps and the two edge gaps to 0 and 1.

    The batch is not copied; on a Fortran-ordered batch each gap is the
    difference of two contiguous columns.  The result does not depend on
    the layout, bit for bit.
    """
    # K=1 has no interior gap, only the two edge gaps; a single row gives a
    # 0-d array
    gap = np.asarray(np.diff(sorted_u, axis=-1).min(axis=-1, initial=np.inf))
    np.minimum(gap, sorted_u[..., 0], out=gap)
    np.minimum(gap, 1.0 - sorted_u[..., -1], out=gap)
    return gap
