"""User-position sampling and the order-statistic geometry of straggler offsets.

Positions live on a 1-D corridor.  The fixed-antenna bottleneck for a round of
M scheduled users is the M-th smallest absolute offset; the movable-radiator
bottleneck is half the tightest window covering M consecutive sorted positions.
The minimum spacing of sorted unit-interval points is the smallest of their
K+1 gaps, the two edge gaps included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; pay that at import

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


@dataclass(frozen=True)
class PositionSample:
    """K user x-coordinates plus the spec and seed that generated them."""

    xs: np.ndarray
    spec: DistributionSpec
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))
        if self.xs.ndim != 1 or self.xs.size < 1:
            raise ParameterError("xs must be a non-empty 1-D array")

    @property
    def K(self) -> int:
        return self.xs.size

    def sorted_xs(self) -> np.ndarray:
        return np.sort(self.xs, kind="stable")


@dataclass(frozen=True)
class StragglerOffsets:
    """Pinched-radiator bottleneck of one round on one sample.

    ``window`` is the (lo, hi) index pair of the tightest M-window in the
    sorted sample and ``z_star`` its midpoint, where the radiator sits.
    """

    pa_offset: float
    z_star: float
    window: tuple


def draw_positions(rng, spec: DistributionSpec, size) -> np.ndarray:
    """Array of i.i.d. user positions from ``spec`` with shape ``size``."""
    if spec.kind == UNIFORM:
        return rng.uniform(-spec.D / 2.0, spec.D / 2.0, size=size)
    centers = np.where(rng.random(size) < 0.5, -spec.mu, spec.mu)
    return centers + rng.normal(0.0, spec.sigma, size=size)


def sample_positions(spec: DistributionSpec, K: int, seed: int) -> PositionSample:
    """Draw K i.i.d. user positions from ``spec`` with a fixed seed."""
    if K < 1:
        raise ParameterError("K must be at least 1")
    xs = draw_positions(np.random.default_rng(seed), spec, K)
    return PositionSample(xs=xs, spec=spec, seed=seed)


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


def pa_bottleneck(sample: PositionSample, M: int) -> StragglerOffsets:
    """Tightest-window offset: half the shortest span of M sorted positions.

    Ties between windows are broken toward the lowest starting index.  For
    M=1 the window is degenerate and the radiator sits on the selected user.
    """
    if not 1 <= M <= sample.K:
        raise ParameterError(f"M={M} out of range for K={sample.K}")
    xs = sample.sorted_xs()
    i = int(_spans(xs, M).argmin())
    return StragglerOffsets(
        pa_offset=float(pa_offsets(xs, M)),
        z_star=float(0.5 * (xs[i] + xs[i + M - 1])),
        window=(i, i + M - 1),
    )


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
